package fenix_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps/heatdis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fenix"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// oneSlotRun is what a Fenix heatdis job leaves behind: every rank's final
// virtual clock (world rank -> clock, for ranks whose body returned), the
// global checksum, and the obs event stream.
type oneSlotRun struct {
	clocks   map[int]float64
	checksum float64
	events   []byte
	spares   int
}

// runOneSlotJob runs heatdis under fenix-kr-veloc on 4 ranks plus 2
// spares with one kill, so that both the spare wait (one spare activated,
// one released at job end) and the repair rendezvous run.
func runOneSlotJob(t *testing.T, exec mpi.ExecMode) oneSlotRun {
	t.Helper()
	m := sim.DefaultMachine()
	m.NoiseAmplitude = 0
	sink := heatdis.NewSink()
	rec := obs.New()
	fail := &core.FailurePlan{Slot: 1, Iteration: 14}
	cc := core.Config{
		Strategy:           core.StrategyFenixKRVeloC,
		Spares:             2,
		CheckpointInterval: 5,
		CheckpointName:     "heatdis",
		Failures:           []*core.FailurePlan{fail},
	}
	// The windowed flush scheduler prices PFS writes from virtual time
	// alone, as the chaos cells do; unscheduled flushes share the PFS in
	// wall-clock order, which no execution mode can hold byte-stable.
	job := mpi.JobConfig{
		Ranks: 6, Machine: m, Seed: 11, Obs: rec, Exec: exec,
		Flush: cluster.FlushPolicy{Window: 2, Coalesce: true},
	}
	app := heatdis.App(heatdis.Config{
		BytesPerRank:       1 << 22,
		Iterations:         20,
		CheckpointInterval: 5,
		ActualRows:         8,
		ActualCols:         16,
	}, sink)
	run := oneSlotRun{clocks: make(map[int]float64)}
	var mu sync.Mutex
	res := core.Run(job, cc, func(s *core.Session) error {
		err := app(s)
		if s.Rank() == 0 {
			// Any survivor can read the pool; rank 0 is always one.
			mu.Lock()
			run.spares = fenix.SpareCount(s.Proc())
			mu.Unlock()
		}
		mu.Lock()
		run.clocks[s.Proc().Rank()] = s.Proc().Now()
		mu.Unlock()
		return err
	})
	if res.Failed || res.Err() != nil {
		t.Fatalf("exec=%v: job failed: %v", exec, res.Err())
	}
	if !fail.Fired() {
		t.Fatalf("exec=%v: the kill never fired", exec)
	}
	sum, err := sink.GlobalChecksum(4)
	if err != nil {
		t.Fatal(err)
	}
	run.checksum = sum
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	run.events = buf.Bytes()
	return run
}

// TestFenixAtOneSlotMatchesGoroutine runs Fenix's two waits — a spare
// parked in Fenix_Init and survivors parked in the repair rendezvous — on
// a single execution slot (ExecPool under GOMAXPROCS(1)), where a wait
// that kept its slot would deadlock the job. The run must be
// indistinguishable from ExecGoroutine: the same per-rank clocks, the same
// checksum, and the same event bytes.
func TestFenixAtOneSlotMatchesGoroutine(t *testing.T) {
	spec := runOneSlotJob(t, mpi.ExecGoroutine)
	if spec.spares != 1 {
		t.Fatalf("%d spares left after one repair, want 1", spec.spares)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pool := runOneSlotJob(t, mpi.ExecPool)

	if len(pool.clocks) != len(spec.clocks) {
		t.Errorf("%d ranks finished at one slot, %d under goroutines", len(pool.clocks), len(spec.clocks))
	}
	for r, want := range spec.clocks {
		if got, ok := pool.clocks[r]; !ok || got != want {
			t.Errorf("world rank %d final clock: one slot %.12f (finished=%v), goroutine %.12f", r, got, ok, want)
		}
	}
	if pool.checksum != spec.checksum {
		t.Errorf("checksum: one slot %v, goroutine %v", pool.checksum, spec.checksum)
	}
	if pool.spares != spec.spares {
		t.Errorf("spares left: one slot %d, goroutine %d", pool.spares, spec.spares)
	}
	if !bytes.Equal(pool.events, spec.events) {
		t.Errorf("event streams differ: one slot %d bytes, goroutine %d bytes", len(pool.events), len(spec.events))
	}
}
