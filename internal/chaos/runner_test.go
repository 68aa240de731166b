package chaos

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// withApp makes every run execute app until the test ends.
func withApp(t *testing.T, app core.App) {
	t.Helper()
	appFor = func(RunConfig) (appRun, error) { return appRun{app: app}, nil }
	t.Cleanup(func() { appFor = buildApp })
}

// TestCampaignSurvivesPanickingRun runs a two-seed sweep whose every run
// panics on one rank: each panic is that seed's violation, and the sweep
// goes on to the next seed instead of ending the process.
func TestCampaignSurvivesPanickingRun(t *testing.T) {
	withApp(t, func(s *core.Session) error {
		if s.Rank() == 1 {
			panic("replay below GC watermark")
		}
		return nil
	})
	camp, err := RunCampaign(CampaignConfig{Seeds: SeedRange(0, 2), Mode: ModeIteration, App: AppHeatdis, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Seeds != 2 || camp.Violated != 2 || camp.Hangs != 0 {
		t.Fatalf("sweep ran %d seeds, %d violated, %d hung; want 2, 2, 0", camp.Seeds, camp.Violated, camp.Hangs)
	}
	for _, rep := range camp.Runs {
		want := "panic: mpi: rank 1 panicked: replay below GC watermark"
		if len(rep.Violations) != 1 || rep.Violations[0] != want {
			t.Fatalf("seed %d: violations %q, want [%q]", rep.Seed, rep.Violations, want)
		}
	}
}

// TestHungRunReportsFiredKills hangs a run after its kill fired: the
// watchdog's report counts the kill from the injector, so the sweep line
// reads kills 1/1, not 0/1.
func TestHungRunReportsFiredKills(t *testing.T) {
	release := make(chan struct{})
	withApp(t, func(s *core.Session) error {
		if s.Rank() == 0 {
			// Visits core.iteration, where the scheduled kill fires.
			return s.Checkpoint("hang", 0, nil, func() error { return nil })
		}
		<-release
		return nil
	})
	before := runtime.NumGoroutine()
	cfg := RunConfig{Seed: 1, App: AppHeatdis, Mode: ModeIteration, Ranks: 4, Spares: 1, Iters: 4, Interval: 2,
		Schedule: Schedule{Kills: []Kill{{Rank: 0, Point: PointIteration, Hit: 0}}}}
	rep := RunOne(cfg, NewRefCache(), 300*time.Millisecond)
	close(release)
	if !rep.Hung {
		t.Fatalf("run did not hang: %s %q", rep.Line(), rep.Violations)
	}
	if rep.KillsFired != 1 || !strings.Contains(rep.Line(), "kills 1/1") {
		t.Fatalf("hung run reports %d fired kills: %s", rep.KillsFired, rep.Line())
	}
	// Let the released run finish so later runs' goroutine baselines hold.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
}
