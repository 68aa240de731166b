package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
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

// TestCampaignMatrix replays every row of campaignCells in both execution
// modes. Each run must satisfy every invariant, the two modes must write
// byte-identical event logs, and the report must match the row's entry in
// the golden file byte for byte — the property that makes a campaign
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
			reports := replayPair(t, cfg, [2]string{"goroutine", "pool"}, refs, timeout)
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

// replayPair runs cfg under runs[0] and then runs[1], fails t on any
// invariant violation or where the two replays differ, and returns the
// reports with the exec field cleared (the report echoes its config).
// Reports are compared byte for byte and event logs less spares'
// fenix.init lines. A node crash takes two co-resident ranks whose flush
// submissions are sampled in wall-clock order (the queue_depth attribute),
// so only the node cells' reports are compared.
func replayPair(t *testing.T, cfg RunConfig, runs [2]string, refs *RefCache, timeout time.Duration) (reports [2][]byte) {
	t.Helper()
	var events [2]bytes.Buffer
	for k, exec := range runs {
		cfg.Exec = exec
		rep := RunOneStreaming(cfg, refs, timeout, &events[k])
		for _, v := range rep.Violations {
			t.Errorf("exec=%s: %s", exec, v)
		}
		rep.Exec = ""
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
func replaySeeds(t *testing.T, runs [2]string, seeds ...uint64) {
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg, err := ConfigForSeed(seed, "", "")
			if err != nil {
				t.Fatal(err)
			}
			replayPair(t, cfg, runs, NewRefCache(), 0)
		})
	}
}

// TestSeedReplayIsByteStable replays cells twice in the same exec mode,
// where TestCampaignMatrix compares the two modes with each other: flush,
// node, storm-shrink, storm-wave, sdc-vote, sdc-mixed, localized and
// localized-shrink on heatdis; iteration, flush and localized-shrink on
// minimd.
func TestSeedReplayIsByteStable(t *testing.T) {
	replaySeeds(t, [2]string{"goroutine", "goroutine"}, 3, 6, 7, 9, 11, 13, 14, 16, 19, 31)
}

// TestExecModeEquivalenceMatrix is the exec-mode half of TestCampaignMatrix
// alone, on four cells that between them take every recovery path (flush
// scheduler, storm shrink, storm-wave spare exhaustion on both apps): the
// quick check after a change to the pool executor.
func TestExecModeEquivalenceMatrix(t *testing.T) {
	replaySeeds(t, [2]string{"goroutine", "pool"}, 3, 7, 9, 19)
}

// TestMixedFaultReplayByteStable replays the sdc-mixed cells twice under
// the pool executor: SDC injection must not perturb its determinism.
func TestMixedFaultReplayByteStable(t *testing.T) {
	replaySeeds(t, [2]string{"pool", "pool"}, 13, 29)
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

// TestExecModeUnknownRejected pins that a bad exec value is a reported
// violation, not a panic or a silent fallback.
func TestExecModeUnknownRejected(t *testing.T) {
	cfg, err := ConfigForSeed(3, "", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exec = "fibers"
	rep := RunOne(cfg, NewRefCache(), 0)
	if len(rep.Violations) == 0 {
		t.Fatal("unknown exec mode accepted")
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
