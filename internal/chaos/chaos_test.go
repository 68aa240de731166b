package chaos

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestCampaignMatrix sweeps one full pass over the mode × app matrix
// (seeds 0..17 hit every cell exactly once) and requires a clean campaign:
// no hangs, no invariant violations, in any mode, on either application.
func TestCampaignMatrix(t *testing.T) {
	camp, err := RunCampaign(CampaignConfig{Seeds: SeedRange(0, len(Modes)*len(Apps))})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range camp.Runs {
		for _, v := range r.Violations {
			t.Errorf("seed %d (%s/%s): %s", r.Seed, r.App, r.Mode, v)
		}
	}
	if !camp.OK() {
		t.Fatalf("campaign failed: %d violated, %d hung of %d", camp.Violated, camp.Hangs, camp.Seeds)
	}
	// The matrix sweep must actually cover every mode.
	for _, m := range Modes {
		if camp.ByMode[m] == 0 {
			t.Errorf("mode %s never ran", m)
		}
	}
}

// TestSeedReplayIsByteStable replays seeds twice and requires the JSON
// report and the streamed JSONL event log to be identical byte for byte —
// the property that makes a campaign finding debuggable with
// `chaos -seed <k>` and two event logs comparable line by line.
func TestSeedReplayIsByteStable(t *testing.T) {
	// flush, node, storm-shrink, storm-wave, collective, spare, sdc-vote,
	// sdc-mixed, localized and localized-shrink cells (sdc-vote and
	// sdc-mixed exercise flip accounting and the checksum-skip path in the
	// byte-stable report; the localized cells trim the message log).
	for _, seed := range []uint64{3, 6, 7, 9, 16, 19, 11, 13, 14, 31} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var out, events [2]bytes.Buffer
			for i := 0; i < 2; i++ {
				cfg, err := ConfigForSeed(seed, "", "")
				if err != nil {
					t.Fatal(err)
				}
				rep := RunOneStreaming(cfg, NewRefCache(), 0, &events[i])
				if err := rep.WriteJSON(&out[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
				t.Errorf("replay differs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out[0].String(), out[1].String())
			}
			// Seed 6's node cell samples a node-mate's flush submission in
			// wall-clock order (the queue_depth attribute of
			// veloc.flush_queued/flush_end), so only its report is compared.
			if seed == 6 {
				return
			}
			if line, a, b := firstDiffLine(dropSpareInit(events[0].String()), dropSpareInit(events[1].String())); line > 0 {
				t.Errorf("event logs differ at line %d:\nrun 1: %s\nrun 2: %s", line, a, b)
			}
		})
	}
}

// dropSpareInit removes the fenix.init events of spares from a JSONL log.
// A spare whose goroutine reaches Fenix_Init only after the members have
// finished returns without emitting one, and one that reaches it late in
// wall-clock terms is streamed out of order: whether and where the line
// appears is a wall-clock race, not part of the replayed run.
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
			// Seeds 9 and 19 are the storm-wave cells of the natural matrix
			// (also pinned as replay seeds in scripts/check.sh).
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
