// Command heatdis runs the heat-distribution benchmark under a chosen
// resilience strategy on the simulated cluster, optionally injecting a
// process failure, and prints the category time breakdown.
//
// Example:
//
//	heatdis -strategy fenix-kr-veloc -ranks 16 -data-mb 256 -fail
//	heatdis -strategy partial-rollback -converge -fail
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps/heatdis"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/trace"
)

func main() {
	d := harness.NewDriver(flag.CommandLine, harness.DriverSpec{
		Name: "heatdis", Unit: "iteration", RanksUsage: "application ranks (one per node)", Seed: 42,
		// Replay-validator bounds: temperatures live in [0, sourceTemp].
		SDCMin: 0, SDCMax: 100,
	})
	dataMB := flag.Int("data-mb", 256, "application data per rank in MB")
	iters := flag.Int("iters", 60, "iterations (fixed variant)")
	converge := flag.Bool("converge", false, "run the convergence variant")
	epsilon := flag.Float64("epsilon", 0.05, "convergence threshold")
	decomp := flag.String("decomp", "1d", "domain decomposition: 1d (row slabs) or 2d (Cartesian blocks)")
	d.Parse(os.Args[1:])

	cfg := heatdis.Config{
		BytesPerRank:       *dataMB << 20,
		Iterations:         *iters,
		CheckpointInterval: d.Interval,
		Convergence:        *converge || d.Strategy.Layers().Rollback == core.RollbackPartial,
		Epsilon:            *epsilon,
		MaxIterations:      20 * *iters,
	}
	var app core.App
	sink := heatdis.NewSink()
	switch *decomp {
	case "1d":
		app = heatdis.App(cfg, sink)
	case "2d":
		if *converge {
			fmt.Fprintln(os.Stderr, "the 2d decomposition supports the fixed-iteration variant only")
			os.Exit(2)
		}
		app = heatdis.App2D(heatdis.Config2D{
			BytesPerRank:       cfg.BytesPerRank,
			Iterations:         cfg.Iterations,
			CheckpointInterval: cfg.CheckpointInterval,
		}, sink)
	default:
		fmt.Fprintf(os.Stderr, "unknown decomposition %q\n", *decomp)
		os.Exit(2)
	}

	res := d.Run(*iters, app)

	out := d.Out
	fmt.Fprintf(out, "strategy=%s ranks=%d data=%dMB launches=%d wall=%.3fs failed=%v\n",
		d.Strategy, d.Ranks, *dataMB, res.Launches, res.WallTime, res.Failed)
	times := res.TimesWithOther()
	for _, c := range []trace.Category{
		trace.AppCompute, trace.AppMPI, trace.ResilienceInit,
		trace.CheckpointFunc, trace.DataRecovery, trace.Recompute, trace.Other,
	} {
		fmt.Fprintf(out, "  %-26s %8.3f s\n", c, times.Get(c))
	}
	if r, ok := sink.Get(0); ok {
		fmt.Fprintf(out, "rank 0: iterations=%d residual=%.6f checksum=%.6g\n", r.Iterations, r.Delta, r.Checksum)
	}
	d.Finish(res)
}
