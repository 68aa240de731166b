// Command chaos sweeps the seeded adversarial fault-injection campaign
// across the resilience stack and reports invariant violations.
//
// A sweep runs N seeds, each deriving a (mode × app) cell and a kill
// schedule from the seed alone:
//
//	chaos -seeds 50
//
// Any finding is replayed exactly — same schedule, same virtual-time
// outcome, byte-identical JSON report — by re-running its seed:
//
//	chaos -seed 17 -json -
//
// The process exits nonzero if any run hangs or violates an invariant.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 50, "number of seeds to sweep, starting at -start")
		start    = flag.Uint64("start", 0, "first seed of the sweep")
		seed     = flag.Int64("seed", -1, "replay a single seed instead of sweeping (prints its JSON report)")
		mode     = flag.String("mode", "", "pin every run to one campaign mode (default: sweep the matrix)")
		app      = flag.String("app", "", "pin every run to one application: heatdis or minimd")
		stormN   = flag.Int("storm-ranks", 0, "storm-wave world size override (0 = the 32-rank default; 64 via make chaos CHAOS_SCALE=64)")
		timeout  = flag.Duration("timeout", chaos.DefaultTimeout, "per-run real-time hang watchdog")
		jsonPath = flag.String("json", "", "write the JSON campaign report to this file ('-' for stdout)")
		events   = flag.String("events", "", "with -seed: stream the run's event log as JSONL to this file (obsreport input)")
		outDir   = flag.String("out", "", "sweep only: write per-seed event logs plus a manifest.json to this directory (obsreport -sweep input)")
		verbose  = flag.Bool("v", false, "print one line per run, not just failures")
	)
	flag.Parse()
	if err := run(*seeds, *start, *seed, *mode, *app, *stormN, *timeout, *jsonPath, *events, *outDir, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		os.Exit(1)
	}
}

func run(seeds int, start uint64, seed int64, mode, app string, stormRanks int, timeout time.Duration, jsonPath, events, outDir string, verbose bool) error {
	if seed >= 0 {
		if outDir != "" {
			return fmt.Errorf("-out is a sweep flag; with -seed use -events to stream the single run's log")
		}
		return replay(uint64(seed), mode, app, stormRanks, timeout, jsonPath, events)
	}
	if events != "" {
		return fmt.Errorf("-events requires -seed (stream one replayed run's log)")
	}
	camp, err := chaos.RunCampaign(chaos.CampaignConfig{
		Seeds:      chaos.SeedRange(start, seeds),
		Mode:       mode,
		App:        app,
		StormRanks: stormRanks,
		Timeout:    timeout,
		EventsDir:  outDir,
		Progress: func(r *chaos.RunReport) {
			if verbose || !r.OK() {
				fmt.Println(r.Line())
			}
			for _, v := range r.Violations {
				fmt.Printf("    %s\n", v)
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("chaos: %d seeds, %d passed, %d violated, %d hung\n",
		camp.Seeds, camp.Passed, camp.Violated, camp.Hangs)
	if err := harness.WriteOutput(jsonPath, camp.WriteJSON); err != nil {
		return err
	}
	if !camp.OK() {
		return fmt.Errorf("campaign found %d violated and %d hung runs (replay with -seed <k>)",
			camp.Violated, camp.Hangs)
	}
	return nil
}

// replay runs one seed and prints its full report, the debugging loop for
// a campaign finding.
func replay(seed uint64, mode, app string, stormRanks int, timeout time.Duration, jsonPath, events string) error {
	cfg, err := chaos.ConfigForSeedScaled(seed, mode, app, stormRanks)
	if err != nil {
		return err
	}
	var stream io.Writer
	if events != "" {
		f, err := os.Create(events)
		if err != nil {
			return err
		}
		defer f.Close()
		stream = f
	}
	rep := chaos.RunOneStreaming(cfg, chaos.NewRefCache(), timeout, stream)
	fmt.Println(rep.Line())
	for _, v := range rep.Violations {
		fmt.Printf("    %s\n", v)
	}
	if jsonPath == "" {
		jsonPath = "-"
	}
	if err := harness.WriteOutput(jsonPath, rep.WriteJSON); err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("seed %d violated %d invariants", seed, len(rep.Violations))
	}
	return nil
}
