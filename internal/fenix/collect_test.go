package fenix

import (
	goruntime "runtime"
	"testing"

	"repro/internal/mpi"
)

// TestFinishedJobsAreCollected runs 200 small Fenix jobs one after
// another, each losing a rank to a kill and leaving a 64 KiB scratch blob
// on every node, and checks that the live heap stays flat: once a job is
// done nothing may keep its world, cluster or blobs reachable. A job that
// stayed reachable would add 256 KiB, 45 MiB over the measured 180 jobs.
func TestFinishedJobsAreCollected(t *testing.T) {
	const warm, jobs, blob = 20, 200, 64 << 10
	const bound = 4 << 20
	job := func() {
		errs, _ := runFenix(5, Config{Spares: 1}, func(ctx *Context) error {
			if ctx.Role() == RoleInitial && ctx.p.Rank() == 1 {
				ctx.p.Exit()
			}
			ctx.p.Node().ScratchWrite("blob", make([]byte, blob))
			_, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum)
			return err
		})
		checkNoErrs(t, errs)
	}
	heapInuse := func() int64 {
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	for i := 0; i < warm; i++ {
		job()
		goruntime.GC()
	}
	base := heapInuse()
	for i := warm; i < jobs; i++ {
		job()
		goruntime.GC()
	}
	grown := heapInuse() - base
	t.Logf("HeapInuse grew %d KiB over %d jobs", grown>>10, jobs-warm)
	if grown > bound {
		t.Fatalf("HeapInuse grew %d KiB over %d finished jobs, bound %d KiB: finished jobs stay reachable",
			grown>>10, jobs-warm, bound>>10)
	}
}
