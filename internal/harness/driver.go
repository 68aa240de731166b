package harness

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kokkos"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DriverSpec is what differs between the application commands sharing a
// Driver.
type DriverSpec struct {
	// Name names the checkpoint set.
	Name string
	// Unit is the application's loop unit ("iteration", "step").
	Unit string
	// RanksUsage is the -ranks help text.
	RanksUsage string
	// Seed is the -seed default.
	Seed uint64
	// SDCMin and SDCMax bound the plausible values the -sdc replay
	// validator accepts.
	SDCMin, SDCMax float64
}

// Driver is the command-line surface cmd/heatdis and cmd/minimd share:
// the strategy, job, failure, flush, SDC and observability flags, and the
// run-and-export sequence around core.Run. A command registers its own
// application flags on the same FlagSet, calls Parse, builds its app,
// passes it to Run, prints its summary and ends with Finish.
type Driver struct {
	// Strategy, Ranks and Interval hold the parsed flags after Parse.
	Strategy core.Strategy
	Ranks    int
	Interval int
	// Out receives the human summary: stdout, or stderr when an
	// observability export goes to stdout, so that
	// `heatdis -fail -events - | obsreport` delivers pure JSONL.
	Out io.Writer

	spec                              DriverSpec
	fs                                *flag.FlagSet
	strategy, machine, sdc            *string
	events, metrics                   *string
	ranks, interval, spares, failRank *int
	flushWindow                       *int
	fail, flushCoalesce               *bool
	seed                              *uint64
	cc                                core.Config
	job                               mpi.JobConfig
	rec                               *obs.Recorder
}

// NewDriver registers the shared flags on fs.
func NewDriver(fs *flag.FlagSet, spec DriverSpec) *Driver {
	names := make([]string, 0, len(core.Strategies()))
	for _, s := range core.Strategies() {
		names = append(names, s.String())
	}
	return &Driver{
		spec:          spec,
		fs:            fs,
		strategy:      fs.String("strategy", "fenix-kr-veloc", "resilience strategy: "+strings.Join(names, ", ")),
		ranks:         fs.Int("ranks", 16, spec.RanksUsage),
		interval:      fs.Int("interval", 10, "checkpoint interval in "+spec.Unit+"s"),
		spares:        fs.Int("spares", 2, "spare ranks (Fenix strategies)"),
		fail:          fs.Bool("fail", false, "inject a failure ~95% between the last two checkpoints"),
		failRank:      fs.Int("fail-rank", 1, "logical rank to kill"),
		machine:       fs.String("machine", "xc40", "machine preset: xc40, commodity, exascale"),
		seed:          fs.Uint64("seed", spec.Seed, "jitter seed"),
		events:        fs.String("events", "", `write the structured resilience event log as JSONL to this path ("-" for stdout)`),
		metrics:       fs.String("metrics", "", `write the metrics snapshot in Prometheus text format to this path ("-" for stdout)`),
		flushWindow:   fs.Int("flush-window", 0, "bound in-flight checkpoint flushes per node to this many (0 = unscheduled: every flush starts immediately)"),
		flushCoalesce: fs.Bool("flush-coalesce", true, "with -flush-window, cancel queued flushes superseded by a newer version of the same checkpoint"),
		sdc:           fs.String("sdc", "", "SDC detection policy for resilient regions: none, checksum, replay, vote (also enables checkpoint-blob verification)"),
	}
}

// exit reports a fatal command error on stderr and exits with code.
func exit(code int, a ...any) {
	fmt.Fprintln(os.Stderr, a...)
	os.Exit(code)
}

// Parse parses args and validates the shared flags, exiting with status 2
// on bad input. Strategies without a Fenix layer run without spares.
func (d *Driver) Parse(args []string) {
	d.fs.Parse(args)
	strategy, err := core.ParseStrategy(*d.strategy)
	if err != nil {
		exit(2, err)
	}
	mk, ok := sim.Presets[*d.machine]
	if !ok {
		exit(2, fmt.Sprintf("unknown machine preset %q", *d.machine))
	}
	d.Strategy, d.Ranks, d.Interval = strategy, *d.ranks, *d.interval
	spares := *d.spares
	if !strategy.UsesFenix() {
		spares = 0
	}
	d.cc = core.Config{
		Strategy:           strategy,
		Spares:             spares,
		CheckpointInterval: d.Interval,
		CheckpointName:     d.spec.Name,
	}
	if *d.sdc != "" {
		pol, err := kokkos.ParseSDCPolicy(*d.sdc)
		if err != nil {
			exit(2, err)
		}
		d.cc.SDC = core.SDCConfig{Policy: pol, MinVal: d.spec.SDCMin, MaxVal: d.spec.SDCMax}
	}
	d.Out = os.Stdout
	if *d.events == "-" || *d.metrics == "-" {
		d.Out = os.Stderr
	}
	d.job = mpi.JobConfig{
		Ranks: d.Ranks + spares, Machine: mk(), Seed: *d.seed,
		Flush: cluster.FlushPolicy{Window: *d.flushWindow, Coalesce: *d.flushCoalesce},
	}
}

// Run executes app for loops iterations of the application loop, placing
// the -fail failure as the figure sweeps do.
func (d *Driver) Run(loops int, app core.App) *core.Result {
	if *d.fail {
		it := failIteration(loops, d.Interval)
		d.cc.Failures = []*core.FailurePlan{{Slot: *d.failRank, Iteration: it}}
		fmt.Fprintf(d.Out, "injecting failure: logical rank %d exits before %s %d\n", *d.failRank, d.spec.Unit, it)
	}
	if *d.events != "" || *d.metrics != "" {
		d.rec = obs.New()
		d.job.Obs = d.rec
	}
	return core.Run(d.job, d.cc, app)
}

// Finish completes the observability exports and exits with status 1 if
// the job failed.
func (d *Driver) Finish(res *core.Result) {
	if d.rec != nil {
		if err := writeObs(d.rec, *d.events, *d.metrics); err != nil {
			exit(1, err)
		}
	}
	if res.Failed {
		os.Exit(1)
	}
}

// writeObs exports the observability recorder's event log and metrics
// snapshot.
func writeObs(rec *obs.Recorder, eventsPath, metricsPath string) error {
	if err := WriteOutput(eventsPath, rec.WriteJSONL); err != nil {
		return err
	}
	return WriteOutput(metricsPath, rec.Registry().WritePrometheus)
}

// WriteOutput writes a command's output file through write. A path of "-"
// selects stdout; an empty path skips the output.
func WriteOutput(path string, write func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
