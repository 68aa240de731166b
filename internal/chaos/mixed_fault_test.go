package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// streamedEvent is the subset of the obs JSONL schema the mixed-fault
// ordering checks need.
type streamedEvent struct {
	Time  float64 `json:"t"`
	Rank  int     `json:"rank"`
	Event string  `json:"event"`
}

func parseEventStream(t *testing.T, raw []byte) []streamedEvent {
	t.Helper()
	var out []streamedEvent
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamedEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMixedFaultStorm pins the sdc-mixed contract: a bit flip and a
// process kill land in the same run, and the two fault classes must
// resolve through disjoint machinery — the flip locally inside the
// resilient region (duplicate-and-vote), the kill globally through the
// Fenix rebuild — without interfering with each other's accounting or
// with the final answer.
func TestMixedFaultStorm(t *testing.T) {
	// Seeds 13 and 29 are the natural sdc-mixed cells of the 16x2 matrix.
	for _, tc := range []struct {
		seed uint64
		app  string
	}{{13, AppHeatdis}, {29, AppMiniMD}} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d-%s", tc.seed, tc.app), func(t *testing.T) {
			cfg, err := ConfigForSeed(tc.seed, "", "")
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Mode != ModeSDCMixed || cfg.App != tc.app {
				t.Fatalf("seed %d maps to %s/%s, want %s/%s", tc.seed, cfg.Mode, cfg.App, ModeSDCMixed, tc.app)
			}
			if len(cfg.Schedule.Kills) == 0 || len(cfg.Schedule.Flips) == 0 {
				t.Fatalf("mixed schedule missing a fault class: %+v", cfg.Schedule)
			}
			var events bytes.Buffer
			rep := RunOneStreaming(cfg, NewRefCache(), 0, &events)
			for _, v := range rep.Violations {
				t.Error(v)
			}
			if rep.JobFailed {
				t.Fatalf("mixed run failed the job: %s", rep.Error)
			}
			// Both fault classes fired and resolved: the kill through a Fenix
			// repair, the flip through the vote policy (which detects every
			// bitwise divergence, so nothing may escape).
			if rep.KillsFired != 1 || rep.Repaired != 1 {
				t.Errorf("kills fired %d repaired %d, want 1 and 1", rep.KillsFired, rep.Repaired)
			}
			if rep.FlipsFired != 1 || rep.SDCInjected != 1 {
				t.Errorf("flips fired %d injected %d, want 1 and 1", rep.FlipsFired, rep.SDCInjected)
			}
			if rep.SDCDetected != 1 || rep.SDCCorrected != 1 || rep.SDCEscaped != 0 {
				t.Errorf("sdc det/corr/esc = %d/%d/%d, want 1/1/0",
					rep.SDCDetected, rep.SDCCorrected, rep.SDCEscaped)
			}

			// Ordering: SDC resolution is local to the region. On the flip
			// rank the injected -> detected -> corrected sequence must run in
			// program order, and no Fenix rebuild (a job-level event that
			// requires the flip rank at a collective) may complete inside
			// that window — the flip never rides the process-recovery path.
			evs := parseEventStream(t, events.Bytes())
			flipRank := cfg.Schedule.Flips[0].Rank
			stage := 0
			sawRebuild := false
			for _, ev := range evs {
				switch {
				case ev.Event == obs.EvFenixRebuild:
					sawRebuild = true
					if stage == 1 || stage == 2 {
						t.Error("fenix rebuild completed inside the SDC resolution window")
					}
				case ev.Rank != flipRank:
					continue
				case ev.Event == obs.EvSDCInjected:
					stage = 1
				case ev.Event == obs.EvSDCDetected:
					if stage != 1 {
						t.Errorf("sdc_detected out of order (stage %d)", stage)
					}
					stage = 2
				case ev.Event == obs.EvSDCCorrected:
					if stage != 2 {
						t.Errorf("sdc_corrected out of order (stage %d)", stage)
					}
					stage = 3
				}
			}
			if stage != 3 {
				t.Errorf("flip rank %d never completed the SDC sequence (stage %d)", flipRank, stage)
			}
			if !sawRebuild {
				t.Error("no Fenix rebuild in the event stream despite a scheduled kill")
			}
		})
	}
}
