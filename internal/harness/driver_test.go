package harness

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/core"
)

func newTestDriver() *Driver {
	return NewDriver(flag.NewFlagSet("test", flag.ContinueOnError), DriverSpec{
		Name: "test", Unit: "step", RanksUsage: "application ranks", Seed: 43,
	})
}

func TestDriverStrategyHelpListsEveryStrategy(t *testing.T) {
	usage := newTestDriver().fs.Lookup("strategy").Usage
	for _, s := range core.Strategies() {
		if !strings.Contains(usage, s.String()) {
			t.Errorf("-strategy help %q omits %s", usage, s)
		}
	}
}

func TestDriverParse(t *testing.T) {
	for _, s := range core.Strategies() {
		d := newTestDriver()
		d.Parse([]string{"-strategy", s.String(), "-ranks", "4", "-spares", "3", "-interval", "5", "-sdc", "vote"})
		wantSpares := 0
		if s.UsesFenix() {
			wantSpares = 3
		}
		if d.Strategy != s || d.Ranks != 4 || d.Interval != 5 {
			t.Errorf("%v: parsed strategy=%v ranks=%d interval=%d", s, d.Strategy, d.Ranks, d.Interval)
		}
		if d.cc.Spares != wantSpares || d.job.Ranks != 4+wantSpares {
			t.Errorf("%v: spares=%d job ranks=%d, want %d spares", s, d.cc.Spares, d.job.Ranks, wantSpares)
		}
		if d.job.Seed != 43 || d.cc.CheckpointName != "test" || d.cc.SDC.Policy.String() != "vote" {
			t.Errorf("%v: seed=%d name=%q sdc=%v", s, d.job.Seed, d.cc.CheckpointName, d.cc.SDC.Policy)
		}
	}
}
