package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/trace"
)

// figCell identifies one row of Figure 5 or 6 in figures_output.txt.
type figCell struct {
	Fig      string // "5a", "5b", "6"
	Size     string // data_MB (Fig. 5) or ranks (Fig. 6)
	Nodes    string // nodes (Fig. 5) or sim_size (Fig. 6)
	Strategy string
}

// figWalls are the two numbers of a row the benchmark checks.
type figWalls struct{ OK, Fail float64 }

// parseFigures reads the wall_ok_s / wall_fail_s columns of every Figure 5
// and Figure 6 row. A byte compare of the whole rendering is impossible:
// virtual seconds drift in the last digits between identical runs whenever
// checkpoints flush to the PFS (ROADMAP open item 1).
func parseFigures(path string) (map[figCell]figWalls, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[figCell]figWalls)
	fig := ""
	okCol, failCol := -1, -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Figure 5 (left)"):
			fig = "5a"
		case strings.HasPrefix(line, "Figure 5 (right)"):
			fig = "5b"
		case strings.HasPrefix(line, "Figure 6"):
			fig = "6"
		case strings.HasPrefix(line, "Figure "), strings.HasPrefix(line, "Section "):
			fig = ""
		}
		cols := strings.Split(line, "\t")
		if fig == "" || len(cols) < 4 {
			continue
		}
		if cols[0] == "data_MB" || cols[0] == "ranks" {
			okCol, failCol = -1, -1
			for i, c := range cols {
				switch c {
				case "wall_ok_s":
					okCol = i
				case "wall_fail_s":
					failCol = i
				}
			}
			continue
		}
		if okCol < 0 || failCol < 0 || failCol >= len(cols) {
			return nil, fmt.Errorf("%s: figure %s row before its header: %q", path, fig, line)
		}
		ok, err1 := strconv.ParseFloat(cols[okCol], 64)
		fail, err2 := strconv.ParseFloat(cols[failCol], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: figure %s: bad wall columns in %q", path, fig, line)
		}
		out[figCell{fig, cols[0], cols[1], cols[2]}] = figWalls{ok, fail}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no Figure 5/6 rows found", path)
	}
	return out, nil
}

type figuresParams struct {
	SizesMB      []int
	Nodes        []int
	Ranks        []int
	KillIters    []int
	SDCSeeds     int
	FigTolerance [2]float64 // wall_ok_s, wall_fail_s
	SeedFeeds    string
}

// figuresRef is what a paper_figures unit is checked against.
type figuresRef struct {
	want map[figCell]figWalls
	// none is the StrategyNone wall time per (figure, size, nodes) group,
	// from reference cells run outside the measured window.
	none         map[figCell]float64
	recoveryNone float64
}

// How far a cell may lie from the checked-in figure before it counts as a
// failed operation. Failure-free walls repeated within 0.02 % of the file
// over ten passes on the seed tree. Walls with an injected failure are
// bimodal there: a recovery either does or does not run into an open flush
// window (ROADMAP open item 1), which moves single cells by up to 2.42 %, and
// figures_output.txt holds the other mode for some of them.
const (
	figToleranceOK   = 0.005
	figToleranceFail = 0.05
)

// paperFigures is what a reader of the paper runs: the full Figure 5 and 6
// sweeps plus the view census, the recovery-cost study and the SDC matrix;
// every one of the eight strategies, the relaunch path no other workload
// touches, 4-64 ranks, both apps.
func paperFigures(smoke bool) workload {
	p := figuresParams{
		SizesMB: []int{64, 256, 1024, 4096}, Nodes: []int{4, 8, 16, 32, 64}, Ranks: []int{8, 16, 32, 64},
		KillIters: []int{11, 15, 18}, SDCSeeds: 3, FigTolerance: [2]float64{figToleranceOK, figToleranceFail},
		SeedFeeds: "RecoveryCostOptions.Seed = 1+seed; Figs. 5-7 and the SDC matrix run the harness defaults, the figures so they can be checked against figures_output.txt",
	}
	if smoke {
		p.SizesMB, p.Nodes, p.Ranks, p.KillIters, p.SDCSeeds = []int{64}, []int{4}, []int{8}, []int{11}, 1
	}
	recOpts := func(seed uint64) harness.RecoveryCostOptions {
		return harness.RecoveryCostOptions{KillIters: p.KillIters, Seed: 1 + seed}
	}
	return workload{
		Name:   "paper_figures",
		Why:    "the full Figure 5/6 sweeps, the view census, the recovery-cost study and the SDC matrix: all eight strategies including relaunch (FailRestart), 4-64 ranks, both apps",
		Params: p, UnitSeconds: 3.9,
		Setup: func(seed uint64) (any, error) {
			path, err := repoFile("figures_output.txt") // the checked-in rendering of Figures 5-7
			if err != nil {
				return nil, err
			}
			ref := &figuresRef{none: make(map[figCell]float64)}
			if ref.want, err = parseFigures(path); err != nil {
				return nil, err
			}
			for _, mb := range p.SizesMB {
				pt := harness.HeatdisCell(core.StrategyNone, 64, mb*harness.MB, harness.HeatdisOptions{})
				ref.none[fig5Group("5a", pt)] = pt.OverheadWall
			}
			for _, n := range p.Nodes {
				pt := harness.HeatdisCell(core.StrategyNone, n, harness.GB, harness.HeatdisOptions{})
				ref.none[fig5Group("5b", pt)] = pt.OverheadWall
			}
			for _, r := range p.Ranks {
				pt := harness.MiniMDCell(core.StrategyNone, r, harness.MiniMDOptions{})
				ref.none[fig6Group(pt)] = pt.OverheadWall
			}
			// The recovery-cost study's job (harness defaults: 16 ranks, 30
			// iterations, interval 10, 64 MB, 8×16 grid) under StrategyNone.
			o := recOpts(seed)
			none, err := heatReference(heatJob{Ranks: 16, Iters: 30, Interval: 10, Rows: 8, Cols: 16, SimBytes: 64 * harness.MB, Sized: time.Second}, o.Seed)
			if err != nil {
				return nil, err
			}
			ref.recoveryNone = none.Wall
			return ref, nil
		},
		Unit: func(seed uint64, r any, tr *tracer) *unitResult {
			ref := r.(*figuresRef)
			u := newUnit()
			// Every harness call is a job the benchmark launches, so each
			// runs under the watchdog and counts as one operation; after
			// a call that hung twice the rest return at once.
			f5a, _ := guarded(u, tr, "harness.Fig5DataScaling", 2*time.Second, func() []harness.HeatdisPoint {
				return harness.Fig5DataScaling(p.SizesMB, harness.HeatdisOptions{})
			})
			f5b, _ := guarded(u, tr, "harness.Fig5WeakScaling", time.Second, func() []harness.HeatdisPoint {
				return harness.Fig5WeakScaling(p.Nodes, harness.HeatdisOptions{})
			})
			f6, _ := guarded(u, tr, "harness.Fig6MiniMD", 2*time.Second, func() []harness.MiniMDPoint {
				return harness.Fig6MiniMD(p.Ranks, harness.MiniMDOptions{})
			})
			f7, _ := guarded(u, tr, "harness.Fig7ViewCensus", time.Second, func() []harness.Fig7Point {
				return harness.Fig7ViewCensus(nil)
			})
			rc, _ := guarded(u, tr, "harness.RecoveryCostStudy", time.Second, func() []harness.RecoveryCostPoint {
				return harness.RecoveryCostStudy(recOpts(seed))
			})
			// The matrix keeps its default base seed: other base seeds reach
			// minimd/replay cells that hang on the seed tree.
			sdc, _ := guarded(u, tr, "harness.SDCMatrix", time.Second, func() []harness.SDCPoint {
				return harness.SDCMatrix(harness.SDCOptions{SeedsPerCell: p.SDCSeeds})
			})
			if u.hung {
				return u
			}
			u.attempted += 6

			maxErr := 0.0
			check := func(c figCell, got figWalls) {
				want, ok := ref.want[c]
				u.op(ok, "figure %s cell %v is not in figures_output.txt", c.Fig, c)
				if !ok {
					return
				}
				for _, col := range []struct{ got, want, tol float64 }{
					{got.OK, want.OK, figToleranceOK}, {got.Fail, want.Fail, figToleranceFail},
				} {
					rel := math.Abs(col.got-col.want) / col.want
					maxErr = math.Max(maxErr, rel)
					u.op(rel <= col.tol, "figure %s cell %v: wall %.3f is %.2f%% from the checked-in %.3f", c.Fig, c, col.got, 100*rel, col.want)
				}
			}
			cell := func(group figCell, s core.Strategy, okWall, failWall float64, okT, failT trace.Times, ranks, iters int) {
				c := group
				c.Strategy = s.String()
				check(c, figWalls{okWall, failWall})
				// A StrategyNone cell runs one job, every other cell a
				// failure-free and a failure-injected one.
				walls, times := []float64{okWall, failWall}, []trace.Times{okT, failT}
				if !s.Checkpoints() {
					walls, times = walls[:1], times[:1]
				}
				for i, w := range walls {
					u.virtWall += w
					u.virtCost += w - ref.none[group]
					addTimes(u, times[i], 1)
					u.add("mpi.rank_iters", float64(ranks*iters))
					u.add("core.job_launches", 1)
				}
				if s.UsesRelaunch() {
					u.add("core.job_launches", 1) // the failure-injected job relaunches once
				}
			}
			for i, pts := range [][]harness.HeatdisPoint{f5a, f5b} {
				for _, pt := range pts {
					cell(fig5Group([]string{"5a", "5b"}[i], pt), pt.Strategy, pt.OverheadWall, pt.FailureWall, pt.Overhead, pt.FailureTimes, pt.Nodes, pt.Iterations)
				}
			}
			for _, pt := range f6 {
				cell(fig6Group(pt), pt.Strategy, pt.OverheadWall, pt.FailureWall, pt.Overhead, pt.FailureTimes, pt.Ranks, 60)
			}
			u.add("harness.fig_max_rel_err", maxErr)

			u.op(len(f7) == 4, "Fig7ViewCensus returned %d points, want 4", len(f7))
			errs := harness.CheckRecoveryCost(rc)
			u.op(len(errs) == 0, "CheckRecoveryCost: %v", errs)
			for _, pt := range rc {
				u.virtWall += pt.WallTime
				u.virtCost += pt.WallTime - ref.recoveryNone
				u.add("core.recompute_iters", pt.RecomputeIters)
				u.add("mpi.msgs_replayed", pt.ReplayedMsgs)
				u.add("mpi.rank_iters", 16*30+pt.RecomputeIters)
				u.add("core.job_launches", 1)
			}
			ladder := harness.CheckSDCLadder(sdc)
			u.op(len(ladder) == 0, "CheckSDCLadder: %v", ladder)
			for _, pt := range sdc {
				// The matrix has its own flip-free baseline, not a
				// StrategyNone run, so it adds to the virtual wall time
				// only and not to the resilience cost.
				u.virtWall += pt.MeanWall * float64(pt.Runs)
				u.add("chaos.runs", float64(pt.Runs))
				u.add("kokkos.sdc_detected", float64(pt.Detected))
				u.add("kokkos.sdc_escaped", float64(pt.Escaped))
				u.add("kokkos.sdc_replays", float64(pt.Replays))
				u.add("kokkos.sdc_votes", float64(pt.Votes))
			}
			return u
		},
	}
}

func fig5Group(fig string, pt harness.HeatdisPoint) figCell {
	return figCell{Fig: fig, Size: strconv.Itoa(pt.BytesPerRank / harness.MB), Nodes: strconv.Itoa(pt.Nodes)}
}

func fig6Group(pt harness.MiniMDPoint) figCell {
	return figCell{Fig: "6", Size: strconv.Itoa(pt.Ranks), Nodes: fmt.Sprintf("%d^3", pt.SimSize)}
}
