package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// campaignCells is the pinned replay table. The first len(Modes)*len(Apps)
// rows are the natural matrix: row k replays seed k, which ConfigForSeed
// maps to cell k mod 32, and each row names that cell, so a matrix change
// that remaps a seed fails here instead of silently retargeting the pin.
// The rows after them replay a seed in a cell they name themselves.
var campaignCells = []struct {
	seed       uint64
	mode, app  string
	stormRanks int // storm-wave world size (0 = the 32-rank default)
}{
	{0, ModeIteration, AppHeatdis, 0},
	{1, ModeRegion, AppHeatdis, 0},
	{2, ModeCollective, AppHeatdis, 0},
	{3, ModeFlush, AppHeatdis, 0},
	{4, ModeNested, AppHeatdis, 0},
	{5, ModeSpare, AppHeatdis, 0},
	{6, ModeNode, AppHeatdis, 0},
	{7, ModeStormShrink, AppHeatdis, 0},
	{8, ModeStormFail, AppHeatdis, 0},
	{9, ModeStormWave, AppHeatdis, 0},
	{10, ModeSDCRegion, AppHeatdis, 0},
	{11, ModeSDCVote, AppHeatdis, 0},
	{12, ModeSDCBlob, AppHeatdis, 0},
	{13, ModeSDCMixed, AppHeatdis, 0},
	{14, ModeLocalized, AppHeatdis, 0},
	{15, ModeLocalizedShrink, AppHeatdis, 0},
	{16, ModeIteration, AppMiniMD, 0},
	{17, ModeRegion, AppMiniMD, 0},
	{18, ModeCollective, AppMiniMD, 0},
	{19, ModeFlush, AppMiniMD, 0},
	{20, ModeNested, AppMiniMD, 0},
	{21, ModeSpare, AppMiniMD, 0},
	{22, ModeNode, AppMiniMD, 0},
	{23, ModeStormShrink, AppMiniMD, 0},
	{24, ModeStormFail, AppMiniMD, 0},
	{25, ModeStormWave, AppMiniMD, 0},
	{26, ModeSDCRegion, AppMiniMD, 0},
	{27, ModeSDCVote, AppMiniMD, 0},
	{28, ModeSDCBlob, AppMiniMD, 0},
	{29, ModeSDCMixed, AppMiniMD, 0},
	{30, ModeLocalized, AppMiniMD, 0},
	{31, ModeLocalizedShrink, AppMiniMD, 0},
	// The allreduce-synchronized flush storm that caught the arrival-order
	// PFS congestion leak: seed 19's schedule in the storm-wave/minimd cell.
	{19, ModeStormWave, AppMiniMD, 0},
	// The storm-wave family at 1024 ranks: multi-wave spare exhaustion,
	// shrink repairs and a world-sized flush ledger (skipped under -short).
	{9, ModeStormWave, AppHeatdis, 1024},
}

const campaignGolden = "testdata/campaign_cells.golden.json"

// TestCampaignMatrix replays every row of campaignCells at the test's
// GOMAXPROCS and under GOMAXPROCS(1), two host schedules that interleave
// the rank goroutines differently. Each run must satisfy every invariant,
// the two runs must write byte-identical event logs, and the report must
// match the row's entry in the golden file byte for byte — the property that makes a campaign
// finding debuggable with `chaos -seed <k>`. A row without an entry fails.
// Regenerate with `go test ./internal/chaos -run CampaignMatrix -update`.
func TestCampaignMatrix(t *testing.T) {
	golden := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(campaignGolden); err == nil {
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	} else if !*update {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	cells := len(Modes) * len(Apps)
	if len(campaignCells) < cells {
		t.Fatalf("%d rows for a %d-cell matrix", len(campaignCells), cells)
	}
	refs := NewRefCache()
	names := map[string]bool{}
	for i, row := range campaignCells {
		name := fmt.Sprintf("seed%d-%s-%s", row.seed, row.mode, row.app)
		if row.stormRanks > 0 {
			name += fmt.Sprintf("-%dranks", row.stormRanks)
		}
		names[name] = true
		t.Run(name, func(t *testing.T) {
			if i < cells {
				natural, err := ConfigForSeed(row.seed, "", "")
				if err != nil {
					t.Fatal(err)
				}
				if row.seed != uint64(i) || natural.Mode != row.mode || natural.App != row.app {
					t.Fatalf("matrix row %d: seed %d maps to %s/%s", i, row.seed, natural.Mode, natural.App)
				}
			}
			timeout := time.Duration(0)
			if row.stormRanks > 0 {
				if testing.Short() {
					t.Skip("1024-rank storm cell skipped in -short mode")
				}
				timeout = scaleTimeout
			}
			cfg, err := ConfigForSeedScaled(row.seed, row.mode, row.app, row.stormRanks)
			if err != nil {
				t.Fatal(err)
			}
			reports := replayPair(t, cfg, [2]int{0, 1}, refs, timeout)
			if *update {
				golden[name] = reports[0]
				return
			}
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no golden entry (run with -update to record it):\n%s", reports[0])
			}
			if line, a, b := firstDiffLine(string(reports[0]), string(want)); line > 0 {
				t.Errorf("report diverged from %s at line %d (run with -update if intended):\ngot:  %s\nwant: %s", campaignGolden, line, a, b)
			}
		})
	}
	for name := range golden {
		if !names[name] {
			if *update {
				delete(golden, name)
			} else {
				t.Errorf("%s has an entry for %s, which is no row of the table", campaignGolden, name)
			}
		}
	}
	if *update {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(campaignGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// replayPair runs cfg at GOMAXPROCS procs[0] and then procs[1] (0 keeps
// the test's value, which is restored after each run), fails t on any
// invariant violation or where the two replays differ, and returns the
// reports. Reports are compared byte for byte and event logs less spares'
// fenix.init lines. A node crash takes two co-resident ranks whose flush
// submissions are sampled in wall-clock order (the queue_depth attribute),
// so only the node cells' reports are compared.
func replayPair(t *testing.T, cfg RunConfig, procs [2]int, refs *RefCache, timeout time.Duration) (reports [2][]byte) {
	t.Helper()
	var (
		events [2]bytes.Buffer
		runs   [2]string
	)
	for k, n := range procs {
		prev := runtime.GOMAXPROCS(n)
		runs[k] = fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
		rep := RunOneStreaming(cfg, refs, timeout, &events[k])
		runtime.GOMAXPROCS(prev)
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", runs[k], v)
		}
		var err error
		if reports[k], err = json.MarshalIndent(rep, "  ", "  "); err != nil {
			t.Fatal(err)
		}
	}
	if line, a, b := firstDiffLine(string(reports[0]), string(reports[1])); line > 0 {
		t.Errorf("reports differ at line %d:\n%s: %s\n%s: %s", line, runs[0], a, runs[1], b)
	}
	if cfg.Mode != ModeNode {
		if line, a, b := firstDiffLine(dropSpareInit(events[0].String()), dropSpareInit(events[1].String())); line > 0 {
			t.Errorf("event logs differ at line %d:\n%s: %s\n%s: %s", line, runs[0], a, runs[1], b)
		}
	}
	return reports
}

// replaySeeds runs replayPair on each seed's own cell, one subtest a seed.
func replaySeeds(t *testing.T, procs [2]int, seeds ...uint64) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg, err := ConfigForSeed(seed, "", "")
			if err != nil {
				t.Fatal(err)
			}
			replayPair(t, cfg, procs, NewRefCache(), 0)
		})
	}
}

// TestSeedReplayIsByteStable replays cells twice at the test's GOMAXPROCS,
// where TestCampaignMatrix compares two GOMAXPROCS values: flush,
// node, storm-shrink, storm-wave, sdc-vote, sdc-mixed, localized and
// localized-shrink on heatdis; iteration, flush and localized-shrink on
// minimd.
func TestSeedReplayIsByteStable(t *testing.T) {
	replaySeeds(t, [2]int{0, 0}, 3, 6, 7, 9, 11, 13, 14, 16, 19, 31)
}

// TestMixedFaultReplayByteStable replays the sdc-mixed cells twice under
// GOMAXPROCS(1): SDC injection must not perturb their determinism.
func TestMixedFaultReplayByteStable(t *testing.T) {
	replaySeeds(t, [2]int{1, 1}, 13, 29)
}

// dropSpareInit removes the fenix.init events of spares from a JSONL log.
// A spare whose goroutine reaches Fenix_Init only after the members have
// finished returns without emitting one: whether the line appears is a
// wall-clock race, not part of the replayed run.
func dropSpareInit(log string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(log, "\n") {
		if !strings.Contains(line, `"event":"fenix.init"`) || !strings.Contains(line, `"role":"spare"`) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// firstDiffLine returns the 1-based number of the first line where a and b
// differ, with both lines, or 0 if they are equal.
func firstDiffLine(a, b string) (int, string, string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return i + 1, x, y
		}
	}
	return 0, "", ""
}

// TestConfigForSeedDeterministic checks schedule derivation is a pure
// function of the seed, and that overrides pin the cell without changing
// the drawn victims/timing.
func TestConfigForSeedDeterministic(t *testing.T) {
	a, err := ConfigForSeed(42, "", "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConfigForSeed(42, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("same seed derived different configs:\n%+v\n%+v", a, b)
	}
	forced, err := ConfigForSeed(42, ModeIteration, AppMiniMD)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Mode != ModeIteration || forced.App != AppMiniMD {
		t.Errorf("override ignored: %+v", forced)
	}
	if _, err := ConfigForSeed(1, "no-such-mode", ""); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := ConfigForSeed(1, "", "no-such-app"); err == nil {
		t.Error("unknown app accepted")
	}
}

// TestExpectFailOutcome pins the storm-fail contract: spare exhaustion
// with shrinking disabled must fail the job with ErrOutOfSpares, repair
// the first kill, and leave exactly one failure unrepaired.
func TestExpectFailOutcome(t *testing.T) {
	for _, app := range Apps {
		cfg, err := ConfigForSeed(8, ModeStormFail, app)
		if err != nil {
			t.Fatal(err)
		}
		rep := RunOne(cfg, NewRefCache(), 0)
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", app, v)
		}
		if !rep.JobFailed || rep.Error != "out-of-spares" {
			t.Errorf("%s: failed=%v error=%q, want out-of-spares failure", app, rep.JobFailed, rep.Error)
		}
		if rep.Repaired != 1 || rep.Unrepaired != 1 {
			t.Errorf("%s: repaired %d unrepaired %d, want 1 and 1", app, rep.Repaired, rep.Unrepaired)
		}
	}
}

// TestStormWaveMatrix pins the spare-exhaustion storm contract at scale,
// on both applications and at both world sizes: cumulative kills exceed
// the spare pool mid-campaign, so the run must survive at least two
// separate shrink waves — the first wave consumes both spares AND shrinks
// in the same rebuild (a mixed spare-repair/shrink-repair generation),
// every later wave repairs by shrinking alone — and finish on a
// communicator compacted by exactly the slots the storm took.
func TestStormWaveMatrix(t *testing.T) {
	for _, ranks := range []int{32, 64} {
		if ranks > 32 && testing.Short() {
			continue // the 64-rank cells ride behind `make chaos CHAOS_SCALE=64`
		}
		for _, app := range Apps {
			// Seeds 9 and 19 carry the storm-wave schedules TestCampaignMatrix
			// pins (seed 19 as a regression row, off its natural cell).
			seed := uint64(9)
			if app == AppMiniMD {
				seed = 19
			}
			t.Run(fmt.Sprintf("%s-%dranks", app, ranks), func(t *testing.T) {
				cfg, err := ConfigForSeedScaled(seed, ModeStormWave, app, ranks)
				if err != nil {
					t.Fatal(err)
				}
				if len(cfg.Schedule.Kills) <= cfg.Spares+1 {
					t.Fatalf("storm too small: %d kills for %d spares", len(cfg.Schedule.Kills), cfg.Spares)
				}
				rep := RunOne(cfg, NewRefCache(), 0)
				for _, v := range rep.Violations {
					t.Error(v)
				}
				if rep.JobFailed {
					t.Fatalf("storm killed the job: %s", rep.Error)
				}
				if rep.Shrinks < 2 {
					t.Errorf("mpi_shrinks %d, want >= 2 (a shrink per post-exhaustion wave)", rep.Shrinks)
				}
				if rep.SparesActivated != cfg.Spares {
					t.Errorf("spares activated %d, want the whole pool (%d)", rep.SparesActivated, cfg.Spares)
				}
				if want := cfg.Ranks - rep.Shrunk; rep.FinalSize != want {
					t.Errorf("final size %d, want %d (%d ranks - %d shrunk)", rep.FinalSize, want, cfg.Ranks, rep.Shrunk)
				}
				if rep.Survived != rep.Injected || rep.Unrepaired != 0 {
					t.Errorf("survived %d of %d injected (unrepaired %d), want all survived",
						rep.Survived, rep.Injected, rep.Unrepaired)
				}
				// One span per rebuild, generations strictly increasing, and
				// the mix: at least one generation must combine spare
				// substitution with shrinking, and at least one must shrink
				// with the pool already empty.
				if len(rep.Spans) != rep.Rebuilds {
					t.Fatalf("%d spans for %d rebuilds, want one per rebuild", len(rep.Spans), rep.Rebuilds)
				}
				var mixed, shrinkOnly bool
				for i, sp := range rep.Spans {
					if i > 0 && sp.Generation <= rep.Spans[i-1].Generation {
						t.Errorf("span %d generation %d not after %d", i, sp.Generation, rep.Spans[i-1].Generation)
					}
					if sp.Replaced > 0 && sp.Shrunk > 0 {
						mixed = true
					}
					if sp.Replaced == 0 && sp.Shrunk > 0 {
						shrinkOnly = true
					}
				}
				if !mixed || !shrinkOnly {
					t.Errorf("span mix mixed=%v shrinkOnly=%v, want both (spans %+v)", mixed, shrinkOnly, rep.Spans)
				}
			})
		}
	}
}

// TestShrinkCampaignCoverage pins the storm-shrink contract: with one
// spare and three kills the job must finish on a compacted communicator,
// with the spans recording one replacement and two shrunk slots.
func TestShrinkCampaignCoverage(t *testing.T) {
	cfg, err := ConfigForSeed(8, ModeStormShrink, AppHeatdis)
	if err != nil {
		t.Fatal(err)
	}
	rep := RunOne(cfg, NewRefCache(), 0)
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.Shrunk != 2 || rep.FinalSize != cfg.Ranks-2 {
		t.Errorf("shrunk %d final size %d, want 2 and %d", rep.Shrunk, rep.FinalSize, cfg.Ranks-2)
	}
	if rep.SparesActivated != 1 {
		t.Errorf("spares activated %d, want 1", rep.SparesActivated)
	}
}

// TestEventsExportErrorIsViolation pins that a failed event-log export
// fails the run instead of leaving a truncated log behind a passing
// report.
func TestEventsExportErrorIsViolation(t *testing.T) {
	cfg, err := ConfigForSeed(3, "", "")
	if err != nil {
		t.Fatal(err)
	}
	rep := RunOneStreaming(cfg, NewRefCache(), 0, failWriter{})
	if rep.OK() {
		t.Fatal("run with a failing events writer reported OK")
	}
	want := "events export: disk full"
	for _, v := range rep.Violations {
		if v == want {
			return
		}
	}
	t.Fatalf("violations %q lack %q", rep.Violations, want)
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestAnalyzeMemoryMatchesFile pins that a chaos log analyzes to the same
// report from memory (Recorder.Events) as from its export (WriteJSONL then
// ReadJSONL). The node cell kills two ranks at one virtual instant. Its log
// is re-emitted with every same-instant group in descending rank order, the
// worst case of the racy cross-rank emission sequence, so an analyzer that
// orders by anything but (t, rank, seq) sees the two inputs differently.
func TestAnalyzeMemoryMatchesFile(t *testing.T) {
	cfg, err := ConfigForSeed(6, ModeNode, AppHeatdis)
	if err != nil {
		t.Fatal(err)
	}
	var run bytes.Buffer
	if rep := RunOneStreaming(cfg, NewRefCache(), 0, &run); !rep.OK() {
		t.Fatalf("node cell failed: %v", rep.Violations)
	}
	logged, err := analyze.ReadJSONL(&run)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	crossRank := false
	for i := 0; i < len(logged); {
		j := i
		for j < len(logged) && logged[j].Time == logged[i].Time {
			j++
		}
		// logged[i:j] is sorted by rank: emit its rank runs last to first.
		for end := j; end > i; {
			start := end - 1
			for start > i && logged[start-1].Rank == logged[end-1].Rank {
				start--
			}
			for _, e := range logged[start:end] {
				rec.Emit(e.Time, e.Rank, e.Layer, e.Name, e.Attrs...)
			}
			crossRank = crossRank || start > i
			end = start
		}
		i = j
	}
	if !crossRank {
		t.Fatal("log has no same-instant events from different ranks")
	}

	mem, err := analyze.Analyze(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rec.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	fromFile, err := analyze.ReadJSONL(&out)
	if err != nil {
		t.Fatal(err)
	}
	file, err := analyze.Analyze(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Spans) == 0 || len(mem.Spans[0].FailedSlots) != 2 {
		t.Fatalf("node cell spans %+v, want a two-slot repair first", mem.Spans)
	}
	if !reflect.DeepEqual(mem, file) {
		t.Fatalf("memory and file reports differ:\nmemory %+v\nfile   %+v", mem, file)
	}
}
