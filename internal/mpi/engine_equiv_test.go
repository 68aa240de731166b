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

var update = flag.Bool("update", false, "rewrite the testdata/*_scenario_*.golden files from the current output")

// Collective-engine golden transcripts. The rendezvous semantics are
// pinned by testdata/engine_scenario_{8,64}.golden: the per-rank results,
// the errors, the exact final virtual clocks and the complete
// observability event stream of one collective program built from the
// operations the stack calls — Barrier, AllreduceF64 and AllreduceInt on
// the world communicator and on NewComm sub-communicators, a mid-run
// failure, a Revoke, and a final allreduce on a survivors' communicator.
// The engine must reproduce them byte for byte for any failure-free
// program and for mid-program rank failures.

// engineTrace is everything observable about one scenario run.
type engineTrace struct {
	transcripts [][]string // per world rank, in program order
	clocks      []float64  // final virtual clock per rank
	events      []byte     // obs JSONL stream, (time, rank, seq)-ordered
}

// runScenario executes the collective program on a fresh world of n
// ranks under the given execution mode; workers <= 0 selects the default
// pool size. Rank n-1 exits mid-program; the survivors observe the
// failure, one of them revokes a survivors' communicator under the
// others' collective, and all of them finish on a second survivors'
// communicator — the way Fenix substitutes its repaired communicator.
func runScenario(t *testing.T, n int, exec ExecMode, workers int) engineTrace {
	t.Helper()
	cl := cluster.New(n, quietMachine())
	w := NewWorld(cl, n, 1, false, 1, 0)
	w.SetExecModeWorkers(exec, workers)
	rec := obs.New()
	w.SetObs(rec)

	// Communicators are built up front by World.NewComm, as Fenix builds
	// its resilient communicator: the even and odd world ranks, then two
	// communicators of the survivors of rank n-1's exit.
	var parity [2][]int
	for r := 0; r < n; r++ {
		parity[r%2] = append(parity[r%2], r)
	}
	subs := [2]*Comm{w.NewComm(parity[0]), w.NewComm(parity[1])}
	survivors := identityGroup(n - 1)
	revoked, final := w.NewComm(survivors), w.NewComm(survivors)

	transcripts := make([][]string, n)
	var mu sync.Mutex
	note := func(p *Proc, format string, args ...any) {
		mu.Lock()
		transcripts[p.Rank()] = append(transcripts[p.Rank()], fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	errs := runWorld(w, func(p *Proc) error {
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

		hi, err := c.AllreduceInt(p, 3*me%n, OpMax)
		if err != nil {
			return err
		}
		note(p, "allreduce int %d t=%.9f", hi, p.Now())

		sub := subs[me%2]
		lo, err := sub.AllreduceF64(p, []float64{float64(me + 1), float64(-me)}, OpMin)
		if err != nil {
			return err
		}
		if err := sub.Barrier(p); err != nil {
			return err
		}
		cnt, err := sub.AllreduceInt(p, 1, OpSum)
		if err != nil {
			return err
		}
		note(p, "sub comm %d rank %d size=%d min=%v count=%d t=%.9f", sub.ID(), sub.Rank(p), sub.Size(), lo, cnt, p.Now())

		// Mid-program failure: the last rank dies instead of entering the
		// next collective; every survivor must observe the same FailedError.
		if me == n-1 {
			note(p, "exiting t=%.9f", p.Now())
			p.Exit()
		}
		_, err = c.AllreduceF64(p, []float64{1}, OpSum)
		note(p, "failed allreduce err=%v t=%.9f", err, p.Now())
		if !IsProcessFailure(err) {
			return fmt.Errorf("rank %d: allreduce with a dead member returned %v", me, err)
		}

		// Revocation: comm rank 0 revokes while the others enter a
		// collective; they are released with ErrRevoked at the revoker's
		// departure stamp, and the revoker's own collective fails fast.
		if revoked.Rank(p) == 0 {
			revoked.Revoke(p)
			note(p, "revoke comm %d t=%.9f", revoked.ID(), p.Now())
		}
		err = revoked.Barrier(p)
		note(p, "revoked barrier err=%v t=%.9f", err, p.Now())
		if !IsRevoked(err) {
			return fmt.Errorf("rank %d: barrier on the revoked comm returned %v", me, err)
		}

		total, err := final.AllreduceF64(p, []float64{float64(me)}, OpSum)
		if err != nil {
			return err
		}
		note(p, "final allreduce size=%d %v t=%.9f", final.Size(), total, p.Now())
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	checkSlotsConserved(t, w, workers)
	clocks := make([]float64, n)
	for i := 0; i < n; i++ {
		clocks[i] = w.Proc(i).Now()
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return engineTrace{transcripts: transcripts, clocks: clocks, events: buf.Bytes()}
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
	compareGolden(t, path, got, want)
}

// compareGolden fails the test at the first line where got and want
// differ; name identifies the file and run in the message.
func compareGolden(t *testing.T, name string, got, want []byte) {
	t.Helper()
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
			t.Fatalf("%s: first difference at line %d (run with -update if intended):\ngot:  %s\nwant: %s", name, i+1, g, w)
		}
	}
}

// golden renders the trace as the golden file's text: a header, then the
// body.
func (tr engineTrace) golden(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Collective scenario on %d ranks (engine_equiv_test.go).\n", n)
	fmt.Fprintf(&b, "# Regenerate: go test ./internal/mpi -run 'TestEngineEquivalence%d$' -update\n", n)
	b.Write(tr.body())
	return b.Bytes()
}

// body renders the trace without a header: transcripts, final clocks in
// shortest round-trip form (so equality is exact), then the JSONL event
// stream verbatim.
func (tr engineTrace) body() []byte {
	var b bytes.Buffer
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
