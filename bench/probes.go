package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/heatdis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kokkos"
	"repro/internal/kr"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/sim"
	"repro/internal/veloc"
)

// probeBatches is how many times each probe repeats its timed loop; the
// reported value is the median batch.
const probeBatches = 5

// probeSizing scales the probes: the full sizes give each probe about half
// a second of timed work, smoke sizes just prove that every probe runs.
type probeSizing struct {
	Ranks       int // width of the mpi and PFS probes
	Steps       int // collective / halo steps per batch
	PFSRounds   int // rounds of Ranks writes per PFS batch
	Submits     int // flush submissions per batch
	Grid        int // edge of the stencil / serialize / checkpoint view
	StencilReps int
	SerialReps  int
	CkptReps    int
	Emits       int
	Analyzed    int // events per analyzer batch
	Batches     int
}

func probeSizes(smoke bool) probeSizing {
	if smoke {
		return probeSizing{Ranks: 16, Steps: 4, PFSRounds: 3, Submits: 16, Grid: 64, StencilReps: 1, SerialReps: 1, CkptReps: 1, Emits: 256, Analyzed: 1, Batches: 1}
	}
	return probeSizing{
		Ranks: 1024, Steps: 40, PFSRounds: 24, Submits: 100000, Grid: 1024, StencilReps: 40, SerialReps: 16,
		CkptReps: 10, Emits: 200000, Analyzed: 1000000, Batches: probeBatches,
	}
}

// runProbes times calls into one layer's public API at a time and returns
// the probe metrics. Probes do not depend on the workload or the seed: they
// are the per-event costs the interaction table in README.md ties to the
// end-to-end metrics.
func runProbes(sz probeSizing, tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64)
	// batch runs one probe's timed loop sz.Batches times and keeps the
	// median; after the first probe that fails the rest are skipped.
	var failed error
	batch := func(name string, f func() (float64, error)) {
		if failed != nil {
			return
		}
		defer tr.begin("probe " + name)()
		runtime.GC() // a probe should not pay for its predecessor's garbage
		var xs []float64
		for i := 0; i < sz.Batches; i++ {
			x, err := f()
			if err != nil {
				failed = fmt.Errorf("probe %s: %w", name, err)
				return
			}
			xs = append(xs, x)
		}
		out[name] = median(xs)
	}
	mib := float64(8*sz.Grid*sz.Grid) / 1e6 // the probe view, in MB

	// Host wall time of a whole job whose ranks do nothing but rendezvous.
	mpiJob := func(body func(p *mpi.Proc, c *mpi.Comm) error) (time.Duration, error) {
		t0 := time.Now()
		res := mpi.RunJob(mpi.JobConfig{Ranks: sz.Ranks, Seed: 1}, func(p *mpi.Proc) error {
			return body(p, p.World().CommWorld())
		})
		return time.Since(t0), res.Err()
	}
	batch("mpi.probe_collective_ns_per_rank_step", func() (float64, error) {
		d, err := mpiJob(func(p *mpi.Proc, c *mpi.Comm) error {
			for i := 0; i < sz.Steps; i++ {
				if _, err := c.AllreduceF64(p, []float64{1}, mpi.OpSum); err != nil {
					return err
				}
				if err := c.Barrier(p); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(d.Nanoseconds()) / float64(sz.Ranks*sz.Steps), err
	})
	batch("mpi.probe_halo_ns_per_msg", func() (float64, error) {
		halo := make([]byte, 32<<10)
		d, err := mpiJob(func(p *mpi.Proc, c *mpi.Comm) error {
			me, n := c.Rank(p), c.Size()
			for i := 0; i < sz.Steps; i++ {
				if _, err := c.Sendrecv(p, (me+1)%n, 7, halo, (me+n-1)%n, 7); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(d.Nanoseconds()) / float64(sz.Ranks*sz.Steps), err
	})

	// PFS writes as a world-sized checkpoint issues them under the default
	// (unscheduled) flush policy, the path heatdis_wide takes: one write per
	// rank per round through WriteSizedFor, which sizes each write's share of
	// the bandwidth from the recorded history. The first and the last round
	// differ by what that history costs.
	var firsts, lasts []float64
	endPFS := tr.begin("probe cluster.probe_pfs_write_us")
	for b := 0; b < sz.Batches; b++ {
		pfs := cluster.NewPFS(sim.DefaultMachine())
		blob := make([]byte, 1<<10)
		for round := 0; round < sz.PFSRounds; round++ {
			t0 := time.Now()
			for r := 0; r < sz.Ranks; r++ {
				pfs.WriteSizedFor(fmt.Sprintf("ckpt-%d-%d", round, r), blob, 1.7*float64(round), 32<<20, r)
			}
			us := float64(time.Since(t0).Microseconds()) / float64(sz.Ranks)
			switch round {
			case 0:
				firsts = append(firsts, us)
			case sz.PFSRounds - 1:
				lasts = append(lasts, us)
			}
		}
	}
	endPFS()
	out["cluster.probe_pfs_write_us_first"] = median(firsts)
	out["cluster.probe_pfs_write_us_last"] = median(lasts)

	batch("cluster.probe_flush_submit_us", func() (float64, error) {
		cl := cluster.New(1, sim.DefaultMachine())
		cl.SetFlushPolicy(cluster.FlushPolicy{Window: 2, Coalesce: true})
		node := cl.Node(0)
		node.ScratchWriteSized("blob", make([]byte, 1<<10), 32<<20)
		t0 := time.Now()
		for i := 0; i < sz.Submits; i++ {
			now := 0.5 * float64(i)
			_, _, _, err := node.FlushSubmit(cluster.FlushRequest{
				Key: "blob", PFSKey: fmt.Sprintf("pfs-%d", i), Owner: 0,
				Deadline: now + 1, CoalesceKey: fmt.Sprintf("ckpt/%d", i%8), Version: i, Share: 8,
			}, now)
			if err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Microseconds()) / float64(sz.Submits), nil
	})

	h, g := kokkos.NewF64("probe_h", sz.Grid, sz.Grid), kokkos.NewF64("probe_g", sz.Grid, sz.Grid)
	for i := 0; i < sz.Grid; i++ {
		h.Set2(i, i, 100)
	}
	batch("kokkos.probe_stencil_ns_per_cell", func() (float64, error) {
		n := sz.Grid
		t0 := time.Now()
		for rep := 0; rep < sz.StencilReps; rep++ {
			kokkos.DefaultExec.ParallelFor(n-2, func(r int) {
				i := r + 1
				for j := 1; j < n-1; j++ {
					g.Set2(i, j, 0.25*(h.At2(i-1, j)+h.At2(i+1, j)+h.At2(i, j-1)+h.At2(i, j+1)))
				}
			})
			h, g = g, h
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(sz.StencilReps*(n-2)*(n-2)), nil
	})
	batch("kokkos.probe_serialize_mb_s", func() (float64, error) {
		t0 := time.Now()
		for rep := 0; rep < sz.CkptReps; rep++ {
			if err := g.Deserialize(h.Serialize()); err != nil {
				return 0, err
			}
		}
		return float64(sz.CkptReps) * mib / time.Since(t0).Seconds(), nil
	})

	// Checkpoint and restart of one 8 MiB view, timed on rank 0 of a 2-rank
	// job; what is timed is host time inside the rank, not virtual time.
	ckptJob := func(body func(p *mpi.Proc, client *veloc.Client, v *kokkos.F64View) (time.Duration, error)) (float64, error) {
		var d time.Duration
		res := mpi.RunJob(mpi.JobConfig{Ranks: 2, Seed: 1}, func(p *mpi.Proc) error {
			client, err := veloc.New(p, veloc.Config{Mode: veloc.Single})
			if err != nil {
				return err
			}
			client.SetComm(p.World().CommWorld())
			mine, err := body(p, client, kokkos.NewF64("probe_view", sz.Grid, sz.Grid))
			if p.Rank() == 0 {
				d = mine
			}
			return err
		})
		return float64(sz.CkptReps) * mib / d.Seconds(), res.Err()
	}
	batch("kr.probe_checkpoint_mb_s", func() (float64, error) {
		return ckptJob(func(p *mpi.Proc, client *veloc.Client, v *kokkos.F64View) (time.Duration, error) {
			ctx, err := kr.MakeContext(p, p.World().CommWorld(), kr.NewVeloCBackend(client, "probe"), kr.Config{Interval: 1, RestoreSurvivors: true})
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := 0; i < sz.CkptReps; i++ {
				if err := ctx.Checkpoint("probe", i, []kokkos.View{v}, func() error { return nil }); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		})
	})
	batch("veloc.probe_checkpoint_mb_s", func() (float64, error) {
		return ckptJob(func(p *mpi.Proc, client *veloc.Client, v *kokkos.F64View) (time.Duration, error) {
			client.Protect(0, viewRegion{v})
			t0 := time.Now()
			for i := 0; i < sz.CkptReps; i++ {
				if err := client.Checkpoint("probe", i); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		})
	})
	batch("veloc.probe_restart_mb_s", func() (float64, error) {
		return ckptJob(func(p *mpi.Proc, client *veloc.Client, v *kokkos.F64View) (time.Duration, error) {
			client.Protect(0, viewRegion{v})
			if err := client.Checkpoint("probe", 0); err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := 0; i < sz.CkptReps; i++ {
				if err := client.Restart("probe", 0); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		})
	})

	emit := func(rec *obs.Recorder) float64 {
		t0 := time.Now()
		for i := 0; i < sz.Emits; i++ {
			rec.Emit(float64(i), i&7, obs.LayerVeloC, obs.EvVeloCCheckpoint, obs.KV("version", i), obs.KV("bytes", 1<<20))
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(sz.Emits)
	}
	var full *obs.Recorder
	batch("obs.probe_emit_ns", func() (float64, error) {
		full = obs.New()
		return emit(full), nil
	})
	batch("obs.probe_emit_off_ns", func() (float64, error) { return emit(nil), nil })
	batch("obs.probe_export_mb_s", func() (float64, error) {
		var n countingWriter
		t0 := time.Now()
		err := full.WriteJSONL(&n)
		return float64(n) / 1e6 / time.Since(t0).Seconds(), err
	})

	// The analyzer's input is the event log of a real failure-injected job
	// (8 ranks + 1 spare, kill at iteration 28), repeated to a stable size.
	rec := obs.New()
	res := core.Run(mpi.JobConfig{Ranks: 9, Seed: 42, Obs: rec},
		core.Config{Strategy: core.StrategyFenixKRVeloC, Spares: 1, CheckpointInterval: 5, CheckpointName: "heatdis",
			Failures: []*core.FailurePlan{{Slot: 1, Iteration: 28}}},
		heatdis.App(heatdis.Config{BytesPerRank: 64 << 20, Iterations: 30, CheckpointInterval: 5}, heatdis.NewSink()))
	if err := res.Err(); err != nil && failed == nil {
		failed = fmt.Errorf("probe obs.probe_analyze_us_per_event: %w", err)
	}
	events := rec.Events()
	batch("obs.probe_analyze_us_per_event", func() (float64, error) {
		reps := 1 + sz.Analyzed/len(events)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := analyze.Analyze(events); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Microseconds()) / float64(reps*len(events)), nil
	})
	return out, failed
}

// viewRegion protects one view through the veloc client directly, as
// core.Session does for the strategies without Kokkos Resilience.
type viewRegion struct{ v *kokkos.F64View }

func (r viewRegion) Bytes() []byte          { return r.v.Serialize() }
func (r viewRegion) Restore(b []byte) error { return r.v.Deserialize(b) }
func (r viewRegion) SimBytes() int          { return r.v.SimBytes() }

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
