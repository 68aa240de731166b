package core

import (
	"fmt"
	"math"

	"repro/internal/kokkos"
	"repro/internal/obs"
	"repro/internal/trace"
)

// SDCConfig configures the silent-data-corruption detection layer: the
// policy resilient regions run under and the bounds the replay validator
// checks view contents against.
type SDCConfig struct {
	// Policy selects the detection strategy (none, checksum, replay, vote).
	Policy kokkos.SDCPolicy
	// Retries bounds replay re-executions (default 2).
	Retries int
	// MinVal/MaxVal are the physical bounds the replay validator accepts
	// for F64 view elements. Both zero means unbounded (finiteness only).
	MinVal, MaxVal float64
}

// sdcScanSecondsPerByte is the virtual cost of one streaming pass over a
// region's views (snapshot, restore, validate, or compare), modeling a
// ~12 GiB/s memory-bandwidth-bound scan. The dominant detection overhead —
// duplicate and replay executions of the body itself — is charged by the
// body's own compute model; this covers only the bookkeeping passes.
const sdcScanSecondsPerByte = 1.0 / float64(12<<30)

// Region executes a communication-free parallel region under the session's
// SDC policy — the integration point between the chaos corruptor (which
// may flip a bit in the views after the primary execution) and the Kokkos
// resilient-execution wrapper (which may detect and repair it). views must
// list every view the body reads or writes; body must be deterministic.
// The error, if any, is ErrSDCUnrecoverable escalation: the region could
// not self-repair and the control-flow layer must roll back.
func (s *Session) Region(label string, views []kokkos.View, body func()) error {
	pol := s.cfg.SDC.Policy
	rep, err := s.region(label).Run(views, body)

	r := s.p.Obs().Registry()
	attrs := func() []obs.Attr {
		return []obs.Attr{
			obs.KV("point", "kokkos.region"), obs.KV("region", label),
			obs.KV("replays", rep.Replays), obs.KV("votes", rep.Votes),
		}
	}
	if rep.Detected > 0 {
		s.p.Event(obs.LayerChaos, obs.EvSDCDetected, attrs()...)
		r.Counter(obs.MSDCDetected).Add(float64(rep.Detected))
	}
	if rep.Corrected > 0 {
		s.p.Event(obs.LayerChaos, obs.EvSDCCorrected, attrs()...)
		r.Counter(obs.MSDCCorrected).Add(float64(rep.Corrected))
	}
	if rep.Escaped > 0 {
		s.p.Event(obs.LayerChaos, obs.EvSDCEscaped, attrs()...)
		r.Counter(obs.MSDCEscaped).Add(float64(rep.Escaped))
	}
	if rep.Replays > 0 {
		r.Counter(obs.MSDCReplays).Add(float64(rep.Replays))
	}
	if rep.Votes > 0 {
		r.Counter(obs.MSDCVotes).Add(float64(rep.Votes))
	}
	if pol.Detects() {
		simBytes := 0
		for _, v := range views {
			simBytes += v.SimBytes()
		}
		scans := 0
		switch pol {
		case kokkos.SDCReplay:
			scans = 2 + 2*rep.Replays
		case kokkos.SDCVote:
			scans = 1 + 2*rep.Votes
		}
		s.p.ChargeTime(trace.ResilienceInit, float64(scans)*float64(simBytes)*sdcScanSecondsPerByte)
	}
	if err != nil {
		return fmt.Errorf("region %s: %w", label, err)
	}
	return nil
}

// region returns the resilient region that label's bodies run under,
// built on the label's first call and kept on the session, so that every
// later run reuses the region's snapshot copies.
func (s *Session) region(label string) *kokkos.Region {
	if reg := s.regions[label]; reg != nil {
		return reg
	}
	reg := &kokkos.Region{Policy: s.cfg.SDC.Policy, Retries: s.cfg.SDC.Retries}
	reg.Corrupt = func(vs []kokkos.View) int {
		frac, bit, ok := s.p.FlipAt("kokkos.region")
		if !ok {
			return 0
		}
		vlabel, elem := kokkos.FlipBit(vs, frac, bit)
		if elem < 0 {
			return 0
		}
		s.p.Event(obs.LayerChaos, obs.EvSDCInjected,
			obs.KV("point", "kokkos.region"), obs.KV("region", label),
			obs.KV("view", vlabel), obs.KV("elem", elem), obs.KV("bit", bit))
		s.p.Obs().Registry().Counter(obs.MSDCInjected).Inc()
		return 1
	}
	if reg.Policy == kokkos.SDCReplay {
		min, max := s.cfg.SDC.MinVal, s.cfg.SDC.MaxVal
		if min == 0 && max == 0 {
			min, max = math.Inf(-1), math.Inf(1)
		}
		reg.Validate = kokkos.BoundsValidator(min, max)
	}
	if s.regions == nil {
		s.regions = make(map[string]*kokkos.Region)
	}
	s.regions[label] = reg
	return reg
}
