package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkSimThroughput is the standing regression gate for the simulator
// hot path (see PERFORMANCE.md). Each iteration advances every rank of the
// world through one application step — an allreduce (the residual
// reduction every iterative solver in the evaluation performs) and a
// barrier — so one iteration costs 2·ranks rank-steps. Reported metrics:
//
//	events/sec    rank-steps (per-rank collective completions) per second
//	              of host time — the simulator's event throughput
//	ns/rank-step  host nanoseconds per rank-step
//	allocs/op     allocations per full-world step (pooling regressions
//	              show up here long before they show up in wall time)
//
// scripts/bench_gate.sh compares events/sec against the checked-in
// baseline and fails CI on a >20% regression.
func BenchmarkSimThroughput(b *testing.B) {
	for _, ranks := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			benchThroughput(b, ranks, EngineTree, ExecGoroutine)
		})
	}
}

// BenchmarkSimThroughputPool is the worker-pool execution mode at the
// widths where goroutine-per-rank scheduler pressure dominates
// (PERFORMANCE.md records the pool/goroutine ratio; scripts/bench_gate.sh
// gates it at 4096 ranks).
func BenchmarkSimThroughputPool(b *testing.B) {
	for _, ranks := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			benchThroughput(b, ranks, EngineTree, ExecPool)
		})
	}
}

// BenchmarkSimThroughputFlat is the legacy flat engine at the same sizes,
// kept so the tree engine's speedup stays measurable (PERFORMANCE.md
// records the ratio; the acceptance floor is 5x at 256 ranks). It also
// serves as bench_gate.sh's machine-speed probe for baseline
// normalization.
func BenchmarkSimThroughputFlat(b *testing.B) {
	for _, ranks := range []int{64, 256} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			benchThroughput(b, ranks, EngineFlat, ExecGoroutine)
		})
	}
}

func benchThroughput(b *testing.B, ranks int, e Engine, exec ExecMode) {
	w := benchWorld(ranks)
	w.SetEngine(e)
	w.SetExecMode(exec)
	c := w.CommWorld()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			p.enter()
			defer w.pool.release()
			buf := []float64{1, 2}
			for i := 0; i < b.N; i++ {
				if _, err := c.AllreduceF64(p, buf, OpSum); err != nil {
					b.Error(err)
					return
				}
				if err := c.Barrier(p); err != nil {
					b.Error(err)
					return
				}
			}
		}(w.Proc(r))
	}
	wg.Wait()
	b.StopTimer()
	rankSteps := float64(2*ranks) * float64(b.N)
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(rankSteps/sec, "events/sec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rankSteps, "ns/rank-step")
	}
}
