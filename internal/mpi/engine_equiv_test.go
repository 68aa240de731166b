package mpi

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/engine_scenario_*.golden from the current output")

// Collective-engine golden transcripts. The rendezvous semantics are
// pinned by testdata/engine_scenario_{8,64}.golden: the per-rank results,
// the errors, the exact final virtual clocks and the complete
// observability event stream of one mixed collective program — every
// collective family, a Split, a mid-run failure, a Shrink, and an Agree.
// The engine must reproduce them byte for byte for any failure-free
// program and for mid-program rank failures.

// engineTrace is everything observable about one scenario run.
type engineTrace struct {
	transcripts [][]string // per world rank, in program order
	clocks      []float64  // final virtual clock per rank
	events      []byte     // obs JSONL stream, (time, rank, seq)-ordered
}

// runScenario executes the mixed collective program on a fresh world of n
// ranks under the given execution mode; workers <= 0 selects the default
// pool size. Rank n-1 exits mid-program; the survivors observe the
// failure, shrink, and continue on the shrunk communicator.
func runScenario(t *testing.T, n int, exec ExecMode, workers int) engineTrace {
	t.Helper()
	cl := cluster.New(n, quietMachine())
	w := NewWorld(cl, n, 1, false, 1, 0)
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

// testEngineEquivalence runs the scenario on n ranks and compares the
// run against its golden file; -update rewrites the file from the run
// instead.
func testEngineEquivalence(t *testing.T, n int) {
	got := runScenario(t, n, ExecGoroutine, 0).golden(n)
	path := filepath.Join("testdata", fmt.Sprintf("engine_scenario_%d.golden", n))
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d (run with -update if intended):\ngot:  %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// golden renders the trace as the golden file's text: transcripts, final
// clocks in shortest round-trip form (so equality is exact), then the
// JSONL event stream verbatim.
func (tr engineTrace) golden(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Mixed collective scenario on %d ranks (engine_equiv_test.go).\n", n)
	fmt.Fprintf(&b, "# Regenerate: go test ./internal/mpi -run 'TestEngineEquivalence%d$' -update\n", n)
	b.WriteString("== transcripts\n")
	for r, lines := range tr.transcripts {
		for _, l := range lines {
			fmt.Fprintf(&b, "%d: %s\n", r, l)
		}
	}
	b.WriteString("== clocks\n")
	for r, c := range tr.clocks {
		fmt.Fprintf(&b, "%d: %s\n", r, strconv.FormatFloat(c, 'g', -1, 64))
	}
	b.WriteString("== events\n")
	b.Write(tr.events)
	return b.Bytes()
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

// TestEngineEquivalenceReplay runs the engine twice on the same scenario
// and requires byte-identical event streams: the pooled op state and
// atomic release path must not leak wall-clock scheduling into the
// virtual outcome.
func TestEngineEquivalenceReplay(t *testing.T) {
	a := runScenario(t, 16, ExecGoroutine, 0)
	b := runScenario(t, 16, ExecGoroutine, 0)
	if !bytes.Equal(a.events, b.events) {
		t.Fatal("engine event streams differ across replays of the same scenario")
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
