// Command obsreport analyzes resilience events JSONL (the output of the
// -events flag on cmd/heatdis, cmd/minimd and cmd/chaos, or of
// obs.Recorder.WriteJSONL) and prints the recovery-timeline
// breakdown the paper's evaluation reports: one span per repaired failure
// episode, segmented into detection / communicator repair / rebuild /
// state restoration / recompute phases, plus per-generation
// checkpoint/flush accounting and flush-latency quantiles.
//
// Beyond the single-run report it renders the run as a per-rank Gantt
// timeline (-timeline, ASCII; -svg for the figure form) and aggregates a
// whole directory of runs (-sweep) into per-(mode × app) phase-duration
// statistics — the output layout of `chaos -seeds N -out dir/`.
//
// Examples:
//
//	heatdis -fail -events events.jsonl && obsreport events.jsonl
//	obsreport -json events.jsonl                  # machine-readable report
//	obsreport -baseline free.jsonl events.jsonl   # overhead deltas
//	heatdis -fail -events - | obsreport           # no arg: read stdin
//	obsreport -timeline -width 120 events.jsonl   # ASCII Gantt
//	obsreport -timeline -svg events.jsonl > t.svg # SVG Gantt
//	chaos -seeds 12 -out runs/ && obsreport -sweep runs/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "obsreport:", err)
	os.Exit(1)
}

func readEvents(path string) ([]obs.Event, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return analyze.ReadJSONL(r)
}

func readReport(path string) (*analyze.Report, error) {
	events, err := readEvents(path)
	if err != nil {
		return nil, err
	}
	rep, err := analyze.Analyze(events)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the machine-readable JSON report instead of the table")
	baselinePath := flag.String("baseline", "", "events JSONL of a baseline run; appends overhead deltas (run - baseline)")
	sweepDir := flag.String("sweep", "", "aggregate a directory of events JSONL files (chaos -out layout) instead of one run")
	timeline := flag.Bool("timeline", false, "render the run as a per-rank Gantt timeline instead of the report table")
	width := flag.Int("width", 100, "with -timeline: plot width in columns")
	svgOut := flag.Bool("svg", false, "with -timeline: emit SVG instead of ASCII")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: obsreport [-json] [-baseline base.jsonl] [-timeline [-width N] [-svg]] [<events.jsonl | ->]\n")
		fmt.Fprintf(os.Stderr, "       obsreport [-json] -sweep <dir>\n")
		fmt.Fprintf(os.Stderr, "With no positional argument (or '-'), events are read from stdin.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *sweepDir != "" {
		if flag.NArg() != 0 {
			fail(fmt.Errorf("-sweep reads a whole directory; drop the positional events argument"))
		}
		sweep, err := analyze.LoadSweep(*sweepDir)
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			if err := sweep.WriteJSON(os.Stdout); err != nil {
				fail(err)
			}
			return
		}
		if err := sweep.WriteTable(os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := "-" // no positional argument: read the event stream from stdin
	if flag.NArg() == 1 {
		path = flag.Arg(0)
	}
	if *baselinePath == "-" && path == "-" {
		fail(fmt.Errorf("-baseline - and stdin input cannot both read the same stream; give one of them a file"))
	}

	events, err := readEvents(path)
	if err != nil {
		fail(err)
	}
	rep, err := analyze.Analyze(events)
	if err != nil {
		fail(err)
	}

	if *timeline {
		tl := analyze.BuildTimeline(events, rep)
		if *svgOut {
			title := path
			if title == "-" {
				title = "recovery timeline"
			}
			fmt.Print(tl.RenderSVG(title))
			return
		}
		fmt.Print(tl.RenderASCII(*width))
		return
	}

	if *jsonOut && *baselinePath == "" {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	var delta *analyze.Delta
	if *baselinePath != "" {
		base, err := readReport(*baselinePath)
		if err != nil {
			fail(err)
		}
		d := analyze.Diff(rep, base)
		delta = &d
	}

	if *jsonOut {
		out := struct {
			Report *analyze.Report `json:"report"`
			Delta  *analyze.Delta  `json:"delta,omitempty"`
		}{rep, delta}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		return
	}

	if err := rep.WriteTable(os.Stdout); err != nil {
		fail(err)
	}
	if delta != nil {
		if err := delta.WriteTable(os.Stdout); err != nil {
			fail(err)
		}
	}
}
