package mpi

import (
	"sync"
	"testing"
)

// Micro-benchmarks of the simulation substrate itself: real host time per
// simulated operation. They bound how large an experiment the harness can
// run, and catch regressions in the rendezvous/mailbox hot paths.

func benchWorld(n int) *World {
	return testWorld(n)
}

func BenchmarkP2PRoundTrip(b *testing.B) {
	w := benchWorld(2)
	c := w.CommWorld()
	payload := make([]byte, 1024)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p := w.Proc(0)
		for i := 0; i < b.N; i++ {
			if err := c.Send(p, 1, 0, payload); err != nil {
				b.Error(err)
				return
			}
			if _, err := c.Recv(p, 1, 1); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		p := w.Proc(1)
		for i := 0; i < b.N; i++ {
			if _, err := c.Recv(p, 0, 0); err != nil {
				b.Error(err)
				return
			}
			if err := c.Send(p, 0, 1, payload); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func benchCollective(b *testing.B, ranks int) {
	w := benchWorld(ranks)
	c := w.CommWorld()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			buf := []float64{1, 2, 3, 4}
			for i := 0; i < b.N; i++ {
				if _, err := c.AllreduceF64(p, buf, OpSum); err != nil {
					b.Error(err)
					return
				}
			}
		}(w.Proc(r))
	}
	wg.Wait()
}

func BenchmarkAllreduce4(b *testing.B)  { benchCollective(b, 4) }
func BenchmarkAllreduce16(b *testing.B) { benchCollective(b, 16) }
func BenchmarkAllreduce64(b *testing.B) { benchCollective(b, 64) }

func BenchmarkBarrier16(b *testing.B) {
	w := benchWorld(16)
	c := w.CommWorld()
	var wg sync.WaitGroup
	for r := 0; r < 16; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := c.Barrier(p); err != nil {
					b.Error(err)
					return
				}
			}
		}(w.Proc(r))
	}
	wg.Wait()
}

func BenchmarkEncodeDecodeF64(b *testing.B) {
	v := make([]float64, 4096)
	for i := range v {
		v[i] = float64(i) * 0.5
	}
	dst := make([]float64, len(v))
	b.SetBytes(int64(8 * len(v)))
	for i := 0; i < b.N; i++ {
		enc := EncodeF64(v)
		if err := DecodeF64Into(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}
