package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Goroutine/pool execution-mode equivalence. ExecGoroutine is the
// executable specification of the execution model; ExecPool must produce
// the same per-rank transcripts, the same final virtual clocks, and the
// same observability event-stream bytes for any program, including
// mid-program rank failures — the worker pool may only change the
// wall-clock interleaving of rank segments, never a virtual outcome
// (DESIGN.md §10). These tests reuse the mixed collective scenario from
// engine_equiv_test.go and add the pool dimension.

// checkSlotsConserved asserts that a finished job left the rank scheduler
// as it found it: no rank is still registered as a mailbox waiter or
// holds an unconsumed wake-up on its resume channel and, under ExecPool,
// all K slots are free and the ready queue is empty. A double wake or a
// missed release shows up here and nowhere else: the virtual outcome of
// the job it leaked from is unaffected. workers is the job's
// SetExecModeWorkers count (<= 0: GOMAXPROCS).
func checkSlotsConserved(t *testing.T, w *World, workers int) {
	t.Helper()
	for _, p := range w.procs {
		p.mail.mu.Lock()
		registered := p.mail.waiter != nil
		p.mail.mu.Unlock()
		if registered || len(p.resume) != 0 {
			t.Errorf("rank %d after the job: registered as waiter %v, unconsumed wake-ups %d", p.rank, registered, len(p.resume))
		}
	}
	ep := w.pool
	if ep.unbounded {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ep.mu.Lock()
	free, queued := ep.slots, len(ep.ready)-ep.head
	ep.mu.Unlock()
	if free != workers || queued != 0 {
		t.Errorf("scheduler after the job: %d of %d slots free, %d ranks still ready", free, workers, queued)
	}
}

// testExecEquivalence compares ExecGoroutine against ExecPool (at the
// default slot count and at a deliberately starved one, which maximizes
// multiplexing and would deadlock on any blocking path that fails to
// yield its slot).
func testExecEquivalence(t *testing.T, n int) {
	spec := runScenario(t, n, ExecGoroutine, 0)
	for _, workers := range []int{0, 1, 2} {
		name := "default"
		if workers > 0 {
			name = fmt.Sprintf("%d", workers)
		}
		pool := runScenario(t, n, ExecPool, workers)
		for r := 0; r < n; r++ {
			if got, want := pool.transcripts[r], spec.transcripts[r]; !equalStrings(got, want) {
				t.Errorf("workers=%s rank %d transcripts differ:\npool:      %v\ngoroutine: %v", name, r, got, want)
			}
			if pool.clocks[r] != spec.clocks[r] {
				t.Errorf("workers=%s rank %d final clock: pool %.12f, goroutine %.12f", name, r, pool.clocks[r], spec.clocks[r])
			}
		}
		if !bytes.Equal(pool.events, spec.events) {
			t.Errorf("workers=%s event streams differ: pool %d bytes, goroutine %d bytes", name, len(pool.events), len(spec.events))
		}
	}
}

func TestExecEquivalence8(t *testing.T)  { testExecEquivalence(t, 8) }
func TestExecEquivalence64(t *testing.T) { testExecEquivalence(t, 64) }

// TestExecEquivalence1024 is the scale cell of the equivalence matrix:
// a world-sized mixed program with a mid-run failure, pool vs goroutine,
// compared byte-for-byte. It runs under -race in CI's test job.
func TestExecEquivalence1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank equivalence skipped in -short")
	}
	spec := runScenario(t, 1024, ExecGoroutine, 0)
	pool := runScenario(t, 1024, ExecPool, 0)
	for r := 0; r < 1024; r++ {
		if got, want := pool.transcripts[r], spec.transcripts[r]; !equalStrings(got, want) {
			t.Fatalf("rank %d transcripts differ:\npool:      %v\ngoroutine: %v", r, got, want)
		}
		if pool.clocks[r] != spec.clocks[r] {
			t.Fatalf("rank %d final clock: pool %.12f, goroutine %.12f", r, pool.clocks[r], spec.clocks[r])
		}
	}
	if !bytes.Equal(pool.events, spec.events) {
		t.Fatal("event streams differ between pool and goroutine mode at 1024 ranks")
	}
}

// TestExecPoolReplay runs the pool twice on the same scenario and
// requires byte-identical event streams: the slot scheduler's FIFO
// handoffs and the recycled payload buffers must not leak wall-clock
// scheduling into the virtual outcome.
func TestExecPoolReplay(t *testing.T) {
	a := runScenario(t, 64, ExecPool, 0)
	b := runScenario(t, 64, ExecPool, 3)
	if !bytes.Equal(a.events, b.events) {
		t.Fatal("pool event streams differ across replays (different slot counts) of the same scenario")
	}
}

// TestExecPoolEventOrder is the regression test for the global event
// order under pooled execution: the exported stream must be sorted by
// (time, rank, seq) — the within-rank Seq monotonicity that makes the
// sort deterministic holds regardless of how rank segments interleave on
// the host — and must match goroutine mode byte-for-byte.
func TestExecPoolEventOrder(t *testing.T) {
	trace := runScenario(t, 32, ExecPool, 2)
	lines := bytes.Split(bytes.TrimSpace(trace.events), []byte("\n"))
	if len(lines) < 32 {
		t.Fatalf("suspiciously small event stream: %d lines", len(lines))
	}
	spec := runScenario(t, 32, ExecGoroutine, 0)
	if !bytes.Equal(trace.events, spec.events) {
		t.Fatal("pool-mode event stream diverges from the goroutine-mode (time, rank, seq) order")
	}
}

// TestExecPoolRecorderOrder checks the (time, rank, seq) sort invariant
// directly on the recorder's event slice after a pool-mode run.
func TestExecPoolRecorderOrder(t *testing.T) {
	w := testWorld(16)
	w.SetExecModeWorkers(ExecPool, 2)
	rec := obs.New()
	rec.SetRingCapacity(1 << 16)
	w.SetObs(rec)
	runWorld(w, func(p *Proc) error {
		c := w.CommWorld()
		for i := 0; i < 4; i++ {
			if _, err := c.AllreduceF64(p, []float64{float64(p.Rank() + i)}, OpSum); err != nil {
				return err
			}
			if err := c.Barrier(p); err != nil {
				return err
			}
		}
		return nil
	})
	checkSlotsConserved(t, w, 2)
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.Time > b.Time ||
			(a.Time == b.Time && a.Rank > b.Rank) ||
			(a.Time == b.Time && a.Rank == b.Rank && a.Seq > b.Seq) {
			t.Fatalf("events out of (time, rank, seq) order at %d: (%g,%d,%d) then (%g,%d,%d)",
				i, a.Time, a.Rank, a.Seq, b.Time, b.Rank, b.Seq)
		}
	}
}

// TestExecPoolFlushSchedule pins deterministic flush scheduling under
// pooled execution: co-resident ranks (4 per node — the configuration
// whose virtual skew would make the schedule wall-order dependent if the
// scheduler ever keyed on submission order, see cluster/flushsched.go)
// push coalescing windowed flushes through cluster.FlushSubmit — the
// deadline-ordered, fixed-Share path the VeloC policy layer uses — from
// their own virtual clocks, interleaved with collectives whose
// congestion probes advance the scheduler. The committed flush windows,
// coalesce counts, per-node queue depths, final clocks, and the event
// stream must be identical across execution modes and pool sizes: every
// scheduling input is a pure function of virtual time, so host-side slot
// scheduling must not be able to reorder the committed schedule.
func TestExecPoolFlushSchedule(t *testing.T) {
	const ranks, perNode, iters = 32, 4, 6
	type flushTrace struct {
		transcripts [][]string
		windows     map[string]string // "rank/version" -> committed [start, end)
		clocks      []float64
		queued      []int
		events      []byte
	}
	run := func(exec ExecMode, workers int) flushTrace {
		cl := cluster.New(ranks/perNode, quietMachine())
		cl.SetFlushPolicy(cluster.FlushPolicy{Window: 2, Coalesce: true})
		w := NewWorld(cl, ranks, perNode, false, 1, 0)
		w.SetExecModeWorkers(exec, workers)
		rec := obs.New()
		rec.SetRingCapacity(1 << 20)
		w.SetObs(rec)
		transcripts := make([][]string, ranks)
		windows := make(map[string]string)
		var mu sync.Mutex
		errs := runWorld(w, func(p *Proc) error {
			c := w.CommWorld()
			me := c.Rank(p)
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("ckpt-%d", me)
				data := bytes.Repeat([]byte{byte(me + i)}, 256)
				p.clock.Advance(p.node.ScratchWriteSized(key, data, 64<<20))
				now := p.clock.Now()
				id := fmt.Sprintf("%d/%d", me, i)
				req := cluster.FlushRequest{
					Key: key, PFSKey: fmt.Sprintf("pfs-%s", id),
					Owner:       me,
					Deadline:    now + 0.01,
					CoalesceKey: key,
					Version:     i,
					Share:       perNode,
					// Commit wall-order is scheduler-internal; collect the
					// windows keyed by identity and compare as a set.
					OnStart: func(start, end float64, _ int) {
						mu.Lock()
						windows[id] = fmt.Sprintf("[%.9f, %.9f)", start, end)
						mu.Unlock()
					},
				}
				_, _, coalesced, err := p.node.FlushSubmit(req, now)
				if err != nil {
					return err
				}
				mu.Lock()
				transcripts[p.Rank()] = append(transcripts[p.Rank()],
					fmt.Sprintf("submit %d t=%.9f coalesced=%d", i, now, coalesced))
				mu.Unlock()
				if _, err := c.AllreduceF64(p, []float64{float64(me + i)}, OpSum); err != nil {
					return err
				}
			}
			return c.Barrier(p)
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("exec=%v workers=%d rank %d: %v", exec, workers, r, err)
			}
		}
		checkSlotsConserved(t, w, workers)
		tr := flushTrace{transcripts: transcripts, windows: windows, clocks: make([]float64, ranks)}
		for i := 0; i < ranks; i++ {
			tr.clocks[i] = w.Proc(i).Now()
		}
		// Queue depths at the virtual end state, then drain the stragglers
		// so the committed-window set is complete.
		for nd := 0; nd < ranks/perNode; nd++ {
			tr.queued = append(tr.queued, cl.Node(nd).QueuedFlushes())
		}
		cl.AdvanceFlushes(tr.clocks[0] + 1e6)
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		tr.events = buf.Bytes()
		return tr
	}
	spec := run(ExecGoroutine, 0)
	for _, workers := range []int{0, 1, 3} {
		pool := run(ExecPool, workers)
		for r := 0; r < ranks; r++ {
			if !equalStrings(pool.transcripts[r], spec.transcripts[r]) {
				t.Errorf("workers=%d rank %d submissions differ:\npool:      %v\ngoroutine: %v",
					workers, r, pool.transcripts[r], spec.transcripts[r])
			}
			if pool.clocks[r] != spec.clocks[r] {
				t.Errorf("workers=%d rank %d final clock: pool %.12f, goroutine %.12f",
					workers, r, pool.clocks[r], spec.clocks[r])
			}
		}
		if len(pool.windows) != len(spec.windows) {
			t.Errorf("workers=%d committed flush count: pool %d, goroutine %d",
				workers, len(pool.windows), len(spec.windows))
		}
		for id, want := range spec.windows {
			if got := pool.windows[id]; got != want {
				t.Errorf("workers=%d flush %s window: pool %s, goroutine %s", workers, id, got, want)
			}
		}
		for nd := range spec.queued {
			if pool.queued[nd] != spec.queued[nd] {
				t.Errorf("workers=%d node %d queued flushes: pool %d, goroutine %d",
					workers, nd, pool.queued[nd], spec.queued[nd])
			}
		}
		if !bytes.Equal(pool.events, spec.events) {
			t.Errorf("workers=%d flush event streams differ: pool %d bytes, goroutine %d bytes",
				workers, len(pool.events), len(spec.events))
		}
	}
}

// TestExecModeParse pins the flag-value round trip.
func TestExecModeParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ExecMode
		ok   bool
	}{
		{"", ExecGoroutine, true},
		{"goroutine", ExecGoroutine, true},
		{"pool", ExecPool, true},
		{"threads", ExecGoroutine, false},
	} {
		got, err := ParseExecMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseExecMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if ExecPool.String() != "pool" || ExecGoroutine.String() != "goroutine" {
		t.Errorf("ExecMode.String() = %q / %q", ExecPool.String(), ExecGoroutine.String())
	}
}

// TestExecPoolP2P drives the point-to-point slot-yield path hard: a ring
// of ranks exchanging messages under a single-slot pool, where any
// receive that failed to yield its slot would deadlock the world.
func TestExecPoolP2P(t *testing.T) {
	const n = 16
	w := testWorld(n)
	w.SetExecModeWorkers(ExecPool, 1)
	errs := runWorld(w, func(p *Proc) error {
		c := w.CommWorld()
		me := c.Rank(p)
		next, prev := (me+1)%n, (me+n-1)%n
		for i := 0; i < 8; i++ {
			got, err := c.Sendrecv(p, next, i, []byte{byte(me), byte(i)}, prev, i)
			if err != nil {
				return err
			}
			if got[0] != byte(prev) || got[1] != byte(i) {
				return fmt.Errorf("rank %d round %d: got %v", me, i, got)
			}
		}
		return c.Barrier(p)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	checkSlotsConserved(t, w, 1)
}

// TestExecPoolSlotsConserved runs point-to-point waits through their
// failure wake-ups at K = 1 and 2 slots: a ring exchange, then a rank
// dies while its successor is parked receiving from it (woken by
// markDead), the survivors revoke (woken by departure), shrink, and
// reduce. Every job must leave the scheduler with all K slots free, an
// empty ready queue and no registered waiter.
func TestExecPoolSlotsConserved(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 2} {
		w := testWorld(n)
		w.SetExecModeWorkers(ExecPool, workers)
		errs := runWorld(w, func(p *Proc) error {
			c := w.CommWorld()
			me := c.Rank(p)
			next, prev := (me+1)%n, (me+n-1)%n
			for i := 0; i < 4; i++ {
				if _, err := c.Sendrecv(p, next, i, []byte{byte(me)}, prev, i); err != nil {
					return err
				}
			}
			if me == 3 {
				p.Exit()
			}
			if me == 4 {
				if _, err := c.Recv(p, 3, 99); !IsULFMError(err) {
					return fmt.Errorf("receive from the dead rank returned %v", err)
				}
				c.Revoke(p)
			} else if _, err := c.Recv(p, next, 100); !IsULFMError(err) {
				return fmt.Errorf("rank %d: receive on the revoked comm returned %v", me, err)
			}
			shrunk, err := c.Shrink(p)
			if err != nil {
				return err
			}
			_, err = shrunk.AllreduceF64(p, []float64{1}, OpSum)
			return err
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d rank %d: %v", workers, r, err)
			}
		}
		checkSlotsConserved(t, w, workers)
	}
}
