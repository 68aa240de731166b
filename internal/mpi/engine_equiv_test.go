package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Tree/flat collective-engine equivalence. EngineFlat is the executable
// specification of the rendezvous semantics; EngineTree must produce the
// same per-rank results, the same errors, the same final virtual clocks,
// and the same observability event stream for any failure-free program and
// for mid-program rank failures. These tests run one mixed collective
// program — every collective family, a Split, a mid-run failure, a Shrink,
// and an Agree — under both engines and compare the complete transcripts.

// engineTrace is everything observable about one scenario run.
type engineTrace struct {
	transcripts [][]string // per world rank, in program order
	clocks      []float64  // final virtual clock per rank
	events      []byte     // obs JSONL stream, (time, rank, seq)-ordered
}

// runEngineScenario executes the mixed collective program on a fresh world
// of n ranks using the given engine. Rank n-1 exits mid-program; the
// survivors observe the failure, shrink, and continue on the shrunk
// communicator.
func runEngineScenario(t *testing.T, n int, e Engine) engineTrace {
	return runScenario(t, n, e, ExecGoroutine, 0)
}

// runScenario is runEngineScenario with the execution mode as a second
// dimension (exec_equiv_test.go); workers <= 0 selects the default pool
// size.
func runScenario(t *testing.T, n int, e Engine, exec ExecMode, workers int) engineTrace {
	t.Helper()
	cl := cluster.New(n, quietMachine())
	w := NewWorld(cl, n, 1, false, 1, 0)
	w.SetEngine(e)
	w.SetExecModeWorkers(exec, workers)
	rec := obs.New()
	rec.SetRingCapacity(1 << 20)
	w.SetObs(rec)

	transcripts := make([][]string, n)
	var mu sync.Mutex
	note := func(p *Proc, format string, args ...any) {
		mu.Lock()
		transcripts[p.Rank()] = append(transcripts[p.Rank()], fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	runWorld(w, func(p *Proc) error {
		c := w.CommWorld()
		me := c.Rank(p)

		if err := c.Barrier(p); err != nil {
			return err
		}
		note(p, "barrier t=%.9f", p.Now())

		sum, err := c.AllreduceF64(p, []float64{float64(me), float64(2 * me)}, OpSum)
		if err != nil {
			return err
		}
		note(p, "allreduce %v t=%.9f", sum, p.Now())

		var seed []byte
		if me == 0 {
			seed = bytes.Repeat([]byte{7}, 64)
		}
		got, err := c.Bcast(p, 0, seed)
		if err != nil {
			return err
		}
		note(p, "bcast len=%d sum=%d t=%.9f", len(got), sumBytes(got), p.Now())

		all, err := c.AllgatherB(p, []byte{byte(me), byte(me + 1)})
		if err != nil {
			return err
		}
		note(p, "allgather %d t=%.9f", sumNested(all), p.Now())

		gathered, err := c.GatherB(p, 1, []byte{byte(me * 3)})
		if err != nil {
			return err
		}
		note(p, "gather %d t=%.9f", sumNested(gathered), p.Now())

		var chunks [][]byte
		if me == 1 {
			chunks = make([][]byte, c.Size())
			for i := range chunks {
				chunks[i] = []byte{byte(i), byte(i + 1)}
			}
		}
		chunk, err := c.ScatterB(p, 1, chunks)
		if err != nil {
			return err
		}
		note(p, "scatter %v t=%.9f", chunk, p.Now())

		out := make([][]byte, c.Size())
		for i := range out {
			out[i] = []byte{byte(me), byte(i)}
		}
		exch, err := c.AlltoallB(p, out)
		if err != nil {
			return err
		}
		note(p, "alltoall %d t=%.9f", sumNested(exch), p.Now())

		rs := make([]float64, c.Size())
		for i := range rs {
			rs[i] = float64(me + i)
		}
		mine, err := c.ReduceScatterF64(p, rs, OpMax)
		if err != nil {
			return err
		}
		note(p, "reducescatter %v t=%.9f", mine, p.Now())

		sub, err := c.Split(p, me%2, me)
		if err != nil {
			return err
		}
		subSum, err := sub.AllreduceF64(p, []float64{float64(me + 1)}, OpSum)
		if err != nil {
			return err
		}
		note(p, "split size=%d sum=%v t=%.9f", sub.Size(), subSum, p.Now())

		// Mid-program failure: the last rank dies instead of entering the
		// next collective; every survivor must observe the same FailedError.
		if me == c.Size()-1 {
			note(p, "exiting t=%.9f", p.Now())
			p.Exit()
		}
		_, err = c.AllreduceF64(p, []float64{1}, OpSum)
		note(p, "failed allreduce err=%v t=%.9f", err, p.Now())
		if err == nil {
			return fmt.Errorf("rank %d: allreduce with dead member succeeded", me)
		}

		shrunk, err := c.Shrink(p)
		if err != nil {
			return err
		}
		note(p, "shrink size=%d t=%.9f", shrunk.Size(), p.Now())

		flag, err := shrunk.Agree(p, uint32(1<<uint(me%8)))
		if err != nil {
			return err
		}
		note(p, "agree %#x t=%.9f", flag, p.Now())

		final, err := shrunk.AllreduceF64(p, []float64{float64(me)}, OpSum)
		if err != nil {
			return err
		}
		note(p, "final allreduce %v t=%.9f", final, p.Now())
		return nil
	})

	checkSlotsConserved(t, w, workers)
	clocks := make([]float64, n)
	for i := 0; i < n; i++ {
		clocks[i] = w.Proc(i).Now()
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("obs recorder dropped %d events; raise the ring capacity", rec.Dropped())
	}
	return engineTrace{transcripts: transcripts, clocks: clocks, events: buf.Bytes()}
}

func sumBytes(b []byte) int {
	s := 0
	for _, v := range b {
		s += int(v)
	}
	return s
}

func sumNested(bs [][]byte) int {
	s := 0
	for _, b := range bs {
		s += sumBytes(b)
	}
	return s
}

func testEngineEquivalence(t *testing.T, n int) {
	tree := runEngineScenario(t, n, EngineTree)
	flat := runEngineScenario(t, n, EngineFlat)

	for r := 0; r < n; r++ {
		if got, want := tree.transcripts[r], flat.transcripts[r]; !equalStrings(got, want) {
			t.Errorf("rank %d transcripts differ:\ntree: %v\nflat: %v", r, got, want)
		}
		if tree.clocks[r] != flat.clocks[r] {
			t.Errorf("rank %d final clock: tree %.12f, flat %.12f", r, tree.clocks[r], flat.clocks[r])
		}
	}
	if !bytes.Equal(tree.events, flat.events) {
		t.Errorf("event streams differ: tree %d bytes, flat %d bytes", len(tree.events), len(flat.events))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEngineEquivalence8(t *testing.T)  { testEngineEquivalence(t, 8) }
func TestEngineEquivalence64(t *testing.T) { testEngineEquivalence(t, 64) }

// TestEngineEquivalenceReplay runs the tree engine twice on the same
// scenario and requires byte-identical event streams: the pooled op state
// and atomic release path must not leak wall-clock scheduling into the
// virtual outcome.
func TestEngineEquivalenceReplay(t *testing.T) {
	a := runEngineScenario(t, 16, EngineTree)
	b := runEngineScenario(t, 16, EngineTree)
	if !bytes.Equal(a.events, b.events) {
		t.Fatal("tree engine event streams differ across replays of the same scenario")
	}
}

// TestTreeTopology pins the binomial-tree shape the engine propagates
// completion over.
func TestTreeTopology(t *testing.T) {
	for _, tc := range []struct {
		r, parent int
	}{{1, 0}, {2, 0}, {3, 2}, {4, 0}, {5, 4}, {6, 4}, {7, 6}, {12, 8}, {13, 12}} {
		if got := treeParent(tc.r); got != tc.parent {
			t.Errorf("treeParent(%d) = %d, want %d", tc.r, got, tc.parent)
		}
	}
	// In a binomial tree over p ranks, parent links cover every non-root
	// exactly once, and each node's pending counter is 1 + its child count.
	for _, p := range []int{1, 2, 3, 5, 8, 13, 64, 100} {
		counts := make([]int, p)
		for r := 1; r < p; r++ {
			counts[treeParent(r)]++
		}
		init := buildTreeInit(p)
		total := 0
		for r := 0; r < p; r++ {
			if want := int32(1 + counts[r]); init[r] != want {
				t.Errorf("p=%d: init[%d] = %d, want %d", p, r, init[r], want)
			}
			total += treeChildCount(r, p)
		}
		if total != p-1 {
			t.Errorf("p=%d: child links %d, want %d", p, total, p-1)
		}
	}
}
