package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/apps/heatdis"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/strategy_composition.golden.json")

// compositionCase is the recorded outcome of one (strategy, fault) run.
type compositionCase struct {
	Launches int                `json:"launches"`
	Failed   bool               `json:"failed"`
	Checksum float64            `json:"checksum"`
	Wall     float64            `json:"wall_s"`
	Trace    map[string]float64 `json:"trace_s"`
	Events   map[string]int     `json:"events"`
}

// compositionRelTol bounds virtual-time drift. Launches, outcome, the
// global checksum and the per-name event totals must match exactly. The
// PFS congestion share still depends on host wall order, which moves the
// wall time by a few 1e-5 relative. Wall time and every trace category
// match to 1e-4 of their own value, except App MPI: it absorbs the drift
// and moves by a few 1e-3 of its own small value, so it matches to 1e-4
// of the wall time.
const compositionRelTol = 1e-4

func runComposition(t *testing.T, strat core.Strategy, fail bool) compositionCase {
	t.Helper()
	const ranks, interval, iters = 8, 5, 20
	spares := 0
	if strat.UsesFenix() {
		spares = 2
	}
	cc := core.Config{
		Strategy:           strat,
		Spares:             spares,
		CheckpointInterval: interval,
		CheckpointName:     "heatdis",
	}
	if fail {
		// 95% of the way from the penultimate checkpoint (9) to the last (19).
		cc.Failures = []*core.FailurePlan{{Slot: 1, Iteration: 9 + interval*95/100}}
	}
	rec := obs.New()
	sink := heatdis.NewSink()
	res := core.Run(mpi.JobConfig{Ranks: ranks + spares, Machine: sim.DefaultMachine(), Seed: 42, Obs: rec},
		cc, heatdis.App(heatdis.Config{BytesPerRank: 64 << 20, Iterations: iters, CheckpointInterval: interval}, sink))
	out := compositionCase{
		Launches: res.Launches,
		Failed:   res.Failed,
		Wall:     res.WallTime,
		Trace:    make(map[string]float64),
		Events:   make(map[string]int),
	}
	if !res.Failed {
		// Without a data layer the kill is fatal and no rank reports.
		sum, err := sink.GlobalChecksum(ranks)
		if err != nil {
			t.Fatal(err)
		}
		out.Checksum = sum
	}
	times := res.TimesWithOther()
	for _, c := range trace.Categories() {
		out.Trace[c.String()] = times.Get(c)
	}
	for _, e := range rec.Events() {
		out.Events[e.Name]++
	}
	return out
}

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= compositionRelTol*math.Max(math.Abs(a), math.Abs(b))
}

// TestStrategyCompositionGolden pins what every layer combination does on
// one small heatdis job, fault-free and with one kill: job launches and
// outcome, the global checksum, per-name event totals, wall time and the category
// split. It guards refactors of how sessions are assembled from layers.
// Regenerate with `go test ./internal/core -run CompositionGolden -update`.
func TestStrategyCompositionGolden(t *testing.T) {
	path := filepath.Join("testdata", "strategy_composition.golden.json")
	got := make(map[string]compositionCase)
	for _, strat := range core.Strategies() {
		for _, fail := range []bool{false, true} {
			key := fmt.Sprintf("%s/fault-free", strat)
			if fail {
				key = fmt.Sprintf("%s/kill-slot1", strat)
			}
			got[key] = runComposition(t, strat, fail)
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]compositionCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for _, k := range keys {
		g, w := got[k], want[k]
		if g.Launches != w.Launches || g.Failed != w.Failed || g.Checksum != w.Checksum {
			t.Errorf("%s: launches=%d failed=%v checksum=%v, want launches=%d failed=%v checksum=%v",
				k, g.Launches, g.Failed, g.Checksum, w.Launches, w.Failed, w.Checksum)
		}
		if !closeRel(g.Wall, w.Wall) {
			t.Errorf("%s: wall %v, want %v", k, g.Wall, w.Wall)
		}
		for c, wv := range w.Trace {
			gv, ok := g.Trace[c]
			within := closeRel(gv, wv)
			if c == trace.AppMPI.String() {
				within = math.Abs(gv-wv) <= compositionRelTol*w.Wall
			}
			if !ok || !within {
				t.Errorf("%s: trace %s = %v, want %v", k, c, gv, wv)
			}
		}
		if len(g.Events) != len(w.Events) {
			t.Errorf("%s: %d event names, want %d", k, len(g.Events), len(w.Events))
		}
		for name, wn := range w.Events {
			if g.Events[name] != wn {
				t.Errorf("%s: %d %s events, want %d", k, g.Events[name], name, wn)
			}
		}
	}
}
