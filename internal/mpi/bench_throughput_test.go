package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkMachineProbe is scripts/bench_gate.sh's machine-speed probe.
// Each iteration is one barrier round over 256 goroutines: each
// registers its own channel under one sync.Mutex and parks on it, and
// the last to arrive wakes the rest — the same lock, park and wake shape
// as a collective, with no simulator code in it, so no change to the
// simulator moves it. The gate scales its checked-in baselines by this
// probe's events/sec relative to the reference machine. Keep it frozen:
// it imports nothing from the repository, and changing it invalidates
// scripts/bench_baseline.txt.
func BenchmarkMachineProbe(b *testing.B) {
	const n = 256
	b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) { machineProbe(b, n) })
}

func machineProbe(b *testing.B, n int) {
	var (
		mu    sync.Mutex
		round int
		lists [2][]chan struct{} // parked goroutines, by round parity
		wg    sync.WaitGroup
	)
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wake := make(chan struct{}, 1)
			for i := 0; i < b.N; i++ {
				mu.Lock()
				l := &lists[round&1]
				if len(*l) < n-1 {
					*l = append(*l, wake)
					mu.Unlock()
					<-wake
					continue
				}
				// Last arrival. The next round parks on the other list,
				// and the one after cannot start before this goroutine
				// arrives there, so the list is free to reuse.
				woken := *l
				*l = woken[:0]
				round++
				mu.Unlock()
				for _, c := range woken {
					c <- struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	reportRankSteps(b, float64(n)*float64(b.N))
}

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
			benchThroughput(b, ranks)
		})
	}
}

func benchThroughput(b *testing.B, ranks int) {
	w := benchWorld(ranks)
	c := w.CommWorld()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
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
	reportRankSteps(b, float64(2*ranks)*float64(b.N))
}

// reportRankSteps reports the throughput metrics bench_gate.sh reads.
func reportRankSteps(b *testing.B, rankSteps float64) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(rankSteps/sec, "events/sec")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rankSteps, "ns/rank-step")
	}
}
