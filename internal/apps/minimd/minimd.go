package minimd

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/kokkos"
	"repro/internal/kr"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Result is one rank's final state.
type Result struct {
	Rank     int
	Steps    int
	Checksum float64
	Temp     float64
	PE       float64
}

// Sink collects per-logical-rank results.
type Sink struct {
	mu      sync.Mutex
	results map[int]Result
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{results: make(map[int]Result)} }

// Put records rank's result.
func (s *Sink) Put(r Result) {
	s.mu.Lock()
	s.results[r.Rank] = r
	s.mu.Unlock()
}

// Get returns rank's result.
func (s *Sink) Get(rank int) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.results[rank]
	return r, ok
}

// GlobalChecksum sums per-rank checksums over n ranks.
func (s *Sink) GlobalChecksum(n int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for r := 0; r < n; r++ {
		res, ok := s.results[r]
		if !ok {
			return 0, fmt.Errorf("minimd: rank %d produced no result", r)
		}
		sum += res.Checksum
	}
	return sum, nil
}

// thermoEvery controls how often global thermodynamics are reduced.
const thermoEvery = 10

// App builds the MiniMD application body for core.Run.
func App(cfg Config, sink *Sink) core.App {
	cfg.normalize()
	return func(s *core.Session) error {
		resume := s.ResumeIteration()
		p := s.Proc()
		rec := p.Recorder()
		dt := cfg.Dt

		// Reuse the survivor's state only when a checkpoint will realign
		// it at the resume iteration; otherwise (fresh start, recovered
		// replacement, or a failure before any checkpoint existed) every
		// rank rebuilds from scratch so the collective schedule matches.
		var st *state
		if v, ok := s.Store["minimd"]; ok && resume >= 0 {
			st = v.(*state)
		} else {
			st = newState(&cfg, s.Rank(), s.Size())
			s.Store["minimd"] = st
			for alias, primary := range map[string]string{"x_swap": "x", "v_swap": "v", "f_swap": "f"} {
				s.DeclareAliases(primary, alias)
			}
			// Application setup cost at the simulated scale: lattice
			// construction, large allocations, input parsing. MiniMD's
			// higher initialization cost (vs Heatdis) is why the paper sees
			// larger Fenix savings for it — a relaunch re-pays this on
			// every rank, Fenix only on the replacement.
			p.ChargeTime(trace.Other, 50*float64(st.simAtoms)/p.Machine().ComputeRate+1.0)
			if resume < 0 {
				// Initial borders / neighbor lists / forces. Skipped when
				// resuming: the restore at the resume iteration supplies
				// all of this state.
				rec.BeginSection(trace.Communicator)
				err := st.setupBorders(s)
				rec.EndSection()
				if err != nil {
					return s.Check(err)
				}
				rec.BeginSection(trace.Neighboring)
				st.buildNeighbors()
				p.Compute(neighborBuildOps * float64(st.simAtoms))
				rec.EndSection()
				rec.BeginSection(trace.ForceCompute)
				st.ljForce()
				p.Compute(opsPerNeighbor * simNeighborsPerAtom * float64(st.simAtoms))
				rec.EndSection()
			}
		}
		sv := st.views

		start := 0
		if resume >= 0 {
			start = resume
		}
		var lastPE, lastKE float64
		for i := start; i < cfg.Steps; i++ {
			err := s.Checkpoint("minimd", i, sv.capture, func() error {
				// Velocity Verlet: first half-kick + drift.
				for a := 0; a < st.n; a++ {
					for d := 0; d < 3; d++ {
						sv.v.Set2(a, d, sv.v.At2(a, d)+0.5*dt*sv.f.At2(a, d))
						sv.x.Set2(a, d, sv.x.At2(a, d)+dt*sv.v.At2(a, d))
					}
				}
				st.wrapXY()
				p.Compute(12 * float64(st.simAtoms))

				// Communication / neighboring phase. Rebuild steps first
				// spatially sort the atoms (cache locality, MiniMD's
				// atom->bin sort), which invalidates borders and lists.
				if i%cfg.NeighborEvery == 0 {
					rec.BeginSection(trace.Neighboring)
					st.sortAtoms()
					p.Compute(8 * float64(st.simAtoms))
					rec.EndSection()
					rec.BeginSection(trace.Communicator)
					err := st.setupBorders(s)
					rec.EndSection()
					if err != nil {
						return err
					}
					rec.BeginSection(trace.Neighboring)
					st.buildNeighbors()
					p.Compute(neighborBuildOps * float64(st.simAtoms))
					rec.EndSection()
				} else {
					rec.BeginSection(trace.Communicator)
					err := st.communicate(s)
					rec.EndSection()
					if err != nil {
						return err
					}
				}

				// Force computation, run as a resilient region: it is the
				// step's compute-bound, communication-free kernel, so the SDC
				// layer may replay or duplicate it locally. Positions are
				// included because a flip there corrupts forces on every
				// subsequent step.
				rec.BeginSection(trace.ForceCompute)
				rerr := s.Region("minimd.force", []kokkos.View{sv.x, sv.f}, func() {
					lastPE = st.ljForce()
					p.Compute(opsPerNeighbor * simNeighborsPerAtom * float64(st.simAtoms))
				})
				rec.EndSection()
				if rerr != nil {
					return rerr
				}

				// Second half-kick.
				for a := 0; a < st.n; a++ {
					for d := 0; d < 3; d++ {
						sv.v.Set2(a, d, sv.v.At2(a, d)+0.5*dt*sv.f.At2(a, d))
					}
				}
				p.Compute(6 * float64(st.simAtoms))
				lastKE = st.kineticEnergy()
				sv.peAcc.Set(0, lastPE)
				sv.keAcc.Set(0, lastKE)
				sv.stepCounter.Set(0, int32(i))
				return nil
			})
			if err != nil {
				return err
			}

			// Periodic global thermodynamics (outside the region body so
			// the recovery iteration stays aligned across ranks).
			if (i+1)%thermoEvery == 0 {
				vals := [2]float64{sv.peAcc.At(0), sv.keAcc.At(0)}
				if _, err := s.Comm().AllreduceF64(p, vals[:], mpi.OpSum); err != nil {
					return s.Check(err)
				}
				slot := (i / thermoEvery) % sv.energyHist.Len()
				sv.energyHist.Set(slot, vals[0]+vals[1])
				sv.tempHist.Set(slot, 2*vals[1]/(3*float64(st.simAtoms)*float64(s.Size())))
			}
		}

		sink.Put(Result{
			Rank:     s.Rank(),
			Steps:    cfg.Steps,
			Checksum: st.checksum(),
			Temp:     2 * lastKE / (3 * float64(st.n)),
			PE:       lastPE,
		})
		return nil
	}
}

// ViewCensus returns the Figure 7 census for a simulated problem of edge
// `size` unit cells on `ranks` ranks, using dry (metadata-only) views so
// arbitrarily large sizes can be classified.
func ViewCensus(size, ranks int) kr.Census {
	cfg := Config{Size: size}
	cfg.normalize()
	simAtoms := cfg.SimAtomsPerRank(ranks)
	simGhosts := cfg.SimBorderAtoms(ranks)
	if ranks == 1 {
		simGhosts = 2 * 4 * size * size * 2 // census convention: count the border layers
	}
	sv := buildViews(true, 4, 1, 1, simAtoms, simGhosts)
	return kr.CensusOf(sv.capture, aliasSet())
}
