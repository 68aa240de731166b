package kokkos

import (
	"runtime"
	"sync"
)

// ExecSpace is a host execution space dispatching parallel loops over a
// fixed worker count: ranges are partitioned into contiguous chunks, one
// goroutine per chunk.
type ExecSpace struct {
	workers int
}

// DefaultExec is the process-wide execution space sized to the host CPU.
var DefaultExec = NewExecSpace(0)

// NewExecSpace creates an execution space with the given concurrency;
// workers <= 0 selects runtime.NumCPU().
func NewExecSpace(workers int) *ExecSpace {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &ExecSpace{workers: workers}
}

// chunks partitions [0,n) into at most e.workers contiguous ranges.
func (e *ExecSpace) chunks(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	w := e.workers
	if w > n {
		w = n
	}
	out := make([][2]int, 0, w)
	base, rem := n/w, n%w
	start := 0
	for i := 0; i < w; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}

// ParallelFor applies f to every i in [0,n). f must only write state owned
// by index i (the usual Kokkos requirement).
func (e *ExecSpace) ParallelFor(n int, f func(i int)) {
	cs := e.chunks(n)
	if len(cs) <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(c[0], c[1])
	}
	wg.Wait()
}
