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

// Execution-schedule equivalence. Every rank is a goroutine, and the host
// schedule may only change the wall-clock interleaving of rank segments,
// never a virtual outcome (DESIGN.md §10): the same per-rank transcripts,
// the same final virtual clocks and the same observability event-stream
// bytes for any program, including mid-program rank failures. These tests
// run each program at the test's GOMAXPROCS and again with one host
// thread, the schedule that interleaves rank segments most differently.

// atGOMAXPROCS runs f with GOMAXPROCS set to n and restores the old value.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// checkWakesConsumed asserts that a finished job left no rank registered
// as a mailbox waiter and no unconsumed wake-up on a resume channel. A
// double wake or a missed deregistration shows up here and nowhere else:
// the virtual outcome of the job it leaked from is unaffected.
func checkWakesConsumed(t *testing.T, w *World) {
	t.Helper()
	for _, p := range w.procs {
		p.mail.mu.Lock()
		registered := p.mail.waiter != nil
		p.mail.mu.Unlock()
		if registered || len(p.resume) != 0 {
			t.Errorf("rank %d after the job: registered as waiter %v, unconsumed wake-ups %d", p.rank, registered, len(p.resume))
		}
	}
}

// testExecEquivalence runs the mixed collective scenario from
// engine_equiv_test.go on n ranks at the test's GOMAXPROCS and at
// GOMAXPROCS(1), and compares the two runs.
func testExecEquivalence(t *testing.T, n int) {
	spec := runScenario(t, n)
	var one engineTrace
	atGOMAXPROCS(1, func() { one = runScenario(t, n) })
	for r := 0; r < n; r++ {
		if got, want := one.transcripts[r], spec.transcripts[r]; !equalStrings(got, want) {
			t.Fatalf("rank %d transcripts differ:\nGOMAXPROCS(1): %v\ndefault:       %v", r, got, want)
		}
		if one.clocks[r] != spec.clocks[r] {
			t.Fatalf("rank %d final clock: GOMAXPROCS(1) %.12f, default %.12f", r, one.clocks[r], spec.clocks[r])
		}
	}
	if !bytes.Equal(one.events, spec.events) {
		t.Fatalf("event streams differ: GOMAXPROCS(1) %d bytes, default %d bytes", len(one.events), len(spec.events))
	}
}

func TestExecEquivalence8(t *testing.T)  { testExecEquivalence(t, 8) }
func TestExecEquivalence64(t *testing.T) { testExecEquivalence(t, 64) }

// TestExecEquivalence1024 is the scale cell: a world-sized mixed program
// with a mid-run failure, compared byte-for-byte across the two
// schedules. It runs under -race in CI's test job.
func TestExecEquivalence1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank equivalence skipped in -short")
	}
	testExecEquivalence(t, 1024)
}

// TestRecorderEventOrder checks the (time, rank, seq) sort invariant
// directly on the recorder's event slice after a run: the within-rank Seq
// monotonicity that makes the sort deterministic holds however rank
// segments interleave on the host.
func TestRecorderEventOrder(t *testing.T) {
	w := testWorld(16)
	rec := obs.New()
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
	checkWakesConsumed(t, w)
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

// TestFlushScheduleAcrossGOMAXPROCS pins deterministic flush scheduling
// across host schedules: co-resident ranks (4 per node — the configuration
// whose virtual skew would make the schedule wall-order dependent if the
// scheduler ever keyed on submission order, see cluster/flushsched.go)
// push coalescing windowed flushes through cluster.FlushSubmit — the
// deadline-ordered, fixed-Share path the VeloC policy layer uses — from
// their own virtual clocks, interleaved with collectives whose
// congestion probes advance the scheduler. The committed flush windows,
// coalesce counts, per-node queue depths, final clocks, and the event
// stream must be identical at the test's GOMAXPROCS and at GOMAXPROCS(1):
// every scheduling input is a pure function of virtual time, so the host
// schedule must not be able to reorder the committed schedule.
func TestFlushScheduleAcrossGOMAXPROCS(t *testing.T) {
	const ranks, perNode, iters = 32, 4, 6
	type flushTrace struct {
		transcripts [][]string
		windows     map[string]string // "rank/version" -> committed [start, end)
		clocks      []float64
		queued      []int
		events      []byte
	}
	run := func() flushTrace {
		cl := cluster.New(ranks/perNode, quietMachine())
		cl.SetFlushPolicy(cluster.FlushPolicy{Window: 2, Coalesce: true})
		w := NewWorld(cl, ranks, perNode, false, 1, 0)
		rec := obs.New()
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
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		checkWakesConsumed(t, w)
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
	spec := run()
	var one flushTrace
	atGOMAXPROCS(1, func() { one = run() })
	for r := 0; r < ranks; r++ {
		if !equalStrings(one.transcripts[r], spec.transcripts[r]) {
			t.Errorf("rank %d submissions differ:\nGOMAXPROCS(1): %v\ndefault:       %v",
				r, one.transcripts[r], spec.transcripts[r])
		}
		if one.clocks[r] != spec.clocks[r] {
			t.Errorf("rank %d final clock: GOMAXPROCS(1) %.12f, default %.12f", r, one.clocks[r], spec.clocks[r])
		}
	}
	if len(one.windows) != len(spec.windows) {
		t.Errorf("committed flush count: GOMAXPROCS(1) %d, default %d", len(one.windows), len(spec.windows))
	}
	for id, want := range spec.windows {
		if got := one.windows[id]; got != want {
			t.Errorf("flush %s window: GOMAXPROCS(1) %s, default %s", id, got, want)
		}
	}
	for nd := range spec.queued {
		if one.queued[nd] != spec.queued[nd] {
			t.Errorf("node %d queued flushes: GOMAXPROCS(1) %d, default %d", nd, one.queued[nd], spec.queued[nd])
		}
	}
	if !bytes.Equal(one.events, spec.events) {
		t.Errorf("flush event streams differ: GOMAXPROCS(1) %d bytes, default %d bytes", len(one.events), len(spec.events))
	}
}

// TestWakesConsumedAfterFailures runs point-to-point waits through their
// failure wake-ups at the test's GOMAXPROCS and at GOMAXPROCS(1): a ring
// exchange, then a rank dies while its successor is parked receiving from
// it (woken by markDead), the survivors revoke (woken by departure) and
// reduce on a NewComm communicator of the survivors. Every job must leave
// no registered waiter and no unconsumed wake-up.
func TestWakesConsumedAfterFailures(t *testing.T) {
	const n = 8
	job := func() {
		w := testWorld(n)
		survivors := w.NewComm([]int{0, 1, 2, 4, 5, 6, 7})
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
			_, err := survivors.AllreduceF64(p, []float64{1}, OpSum)
			return err
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d rank %d: %v", runtime.GOMAXPROCS(0), r, err)
			}
		}
		checkWakesConsumed(t, w)
	}
	job()
	atGOMAXPROCS(1, job)
}
