// Command minimd runs the MiniMD molecular-dynamics mini-app under a
// chosen resilience strategy on the simulated cluster and prints the
// per-section time breakdown (Force Compute / Neighboring / Communicator),
// as the paper's Figure 6 reports.
//
// Example:
//
//	minimd -strategy fenix-kr-veloc -ranks 32 -size 150 -fail
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/apps/minimd"
	"repro/internal/harness"
	"repro/internal/trace"
)

func main() {
	d := harness.NewDriver(flag.CommandLine, harness.DriverSpec{
		Name: "minimd", Unit: "step", RanksUsage: "application ranks", Seed: 43,
		// Replay-validator bounds: forces/positions are finite but have no
		// tight a-priori range; only wild exponent flips and NaN/Inf are
		// rejectable.
		SDCMin: -1e12, SDCMax: 1e12,
	})
	size := flag.Int("size", 100, "simulated problem edge in unit cells (size^3 cells)")
	steps := flag.Int("steps", 60, "timesteps")
	d.Parse(os.Args[1:])

	cfg := minimd.Config{
		Size:               *size,
		Steps:              *steps,
		CheckpointInterval: d.Interval,
	}
	sink := minimd.NewSink()
	res := d.Run(*steps, minimd.App(cfg, sink))

	out := d.Out
	fmt.Fprintf(out, "strategy=%s ranks=%d size=%d^3 (%d atoms/rank simulated) launches=%d wall=%.3fs failed=%v\n",
		d.Strategy, d.Ranks, *size, cfg.SimAtomsPerRank(d.Ranks), res.Launches, res.WallTime, res.Failed)
	times := res.TimesWithOther()
	for _, c := range []trace.Category{
		trace.ForceCompute, trace.Neighboring, trace.Communicator,
		trace.ResilienceInit, trace.CheckpointFunc, trace.DataRecovery,
		trace.Recompute, trace.Other,
	} {
		fmt.Fprintf(out, "  %-26s %8.3f s\n", c, times.Get(c))
	}
	if r, ok := sink.Get(0); ok {
		fmt.Fprintf(out, "rank 0: steps=%d T=%.4f PE=%.4f checksum=%.6g\n", r.Steps, r.Temp, r.PE, r.Checksum)
	}
	d.Finish(res)
}
