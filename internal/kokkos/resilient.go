// Resilient execution: the silent-data-corruption (SDC) layer of the
// Kokkos model, mirroring hpx-kokkos-resilience's ResilientReplay
// execution-space wrapper (re-run a region until a user validator
// accepts) and ResilientDuplicatesSubscriber (duplicate-and-vote on the
// region's views). Both run the same deterministic body, so every retry
// and duplicate execution is bitwise reproducible under the simulator's
// virtual clocks.
package kokkos

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// SDCPolicy selects the detection strategy a resilient region runs under.
type SDCPolicy int

const (
	// SDCNone runs regions bare: corruption propagates undetected.
	SDCNone SDCPolicy = iota
	// SDCChecksum relies on checkpoint-blob checksums only (kr codec CRC
	// and the VeloC integrity verification); regions themselves run bare.
	SDCChecksum
	// SDCReplay validates the region's views after execution and re-runs
	// the region (from a pre-execution snapshot) until the validator
	// accepts, up to Retries times — Kokkos::ResilientReplay.
	SDCReplay
	// SDCVote executes the region on duplicated views and compares the
	// results element-wise; a mismatch triggers a third execution and an
	// element-wise majority vote, escalating on 3-way disagreement —
	// the ResilientDuplicatesSubscriber strategy.
	SDCVote
)

// String returns the policy's campaign/CLI name.
func (p SDCPolicy) String() string {
	switch p {
	case SDCNone:
		return "none"
	case SDCChecksum:
		return "checksum"
	case SDCReplay:
		return "replay"
	case SDCVote:
		return "vote"
	default:
		return fmt.Sprintf("sdc-policy-%d", int(p))
	}
}

// ParseSDCPolicy parses a policy name as printed by String.
func ParseSDCPolicy(s string) (SDCPolicy, error) {
	switch strings.ToLower(s) {
	case "", "none":
		return SDCNone, nil
	case "checksum":
		return SDCChecksum, nil
	case "replay":
		return SDCReplay, nil
	case "vote":
		return SDCVote, nil
	default:
		return SDCNone, fmt.Errorf("kokkos: unknown SDC policy %q (want none, checksum, replay, or vote)", s)
	}
}

// Detects reports whether the policy performs any in-region detection.
func (p SDCPolicy) Detects() bool { return p == SDCReplay || p == SDCVote }

// ErrSDCUnrecoverable is returned when a resilient region exhausts its
// retries without producing a result its validator (or majority vote)
// accepts — the escalation point to the control-flow rollback layer.
var ErrSDCUnrecoverable = errors.New("kokkos: resilient region exhausted retries without an accepted result")

// RegionReport accounts one resilient-region execution.
type RegionReport struct {
	// Injected counts bit flips the chaos hook applied to this execution.
	Injected int
	// Detected counts injected flips caught by the policy; Escaped counts
	// flips that survived undetected (Injected == Detected + Escaped).
	Detected int
	// Corrected counts detected flips whose damage was repaired (by a
	// clean re-execution or a winning majority vote).
	Corrected int
	// Escaped counts flips that propagated out of the region undetected.
	Escaped int
	// Replays counts extra body executions forced by a rejecting
	// validator (replay policy).
	Replays int
	// Votes counts duplicate body executions compared against the primary
	// (vote policy): 1 per region normally, 2 when a tie-break ran.
	Votes int
	// Escalated marks a region that could not self-repair (validator
	// still rejecting after Retries, or a 3-way vote disagreement).
	Escalated bool
}

// Region executes bodies under an SDC policy. The zero value runs bare.
// A Region keeps its snapshot copies from one Run to the next, so it must
// not run concurrently with itself or with a copy of itself.
type Region struct {
	// Policy selects the detection strategy.
	Policy SDCPolicy
	// Retries bounds replay re-executions (default 2).
	Retries int
	// Validate is the replay-policy acceptance check over the region's
	// views; nil accepts everything.
	Validate func(views []View) bool
	// Corrupt is the chaos hook, called exactly once per Run after the
	// primary execution; it may flip bits in the views and returns the
	// number of flips applied. nil injects nothing. Re-executions and
	// duplicate executions are never corrupted (the single-event-upset
	// model: one particle strike per region at most).
	Corrupt func(views []View) int

	// snap, primary and secondary are the last run's copies of the views:
	// the pre-execution snapshot and, under vote, the primary and
	// secondary results. A run refreshes each in place and clones a view
	// again only when its kind, shape or dryness changed, so a region that
	// runs over the same views every step allocates no copy after its
	// first run.
	snap, primary, secondary []View
}

// Run executes body over views under the region's policy. views must list
// every view the body reads or writes (non-aliasing); body must be
// deterministic and communication-free, so re-executions are local.
func (r *Region) Run(views []View, body func()) (RegionReport, error) {
	switch r.Policy {
	case SDCReplay:
		return r.runReplay(views, body)
	case SDCVote:
		return r.runVote(views, body)
	default:
		// Bare execution: any injected flip escapes the region.
		rep := RegionReport{}
		body()
		rep.Injected = r.corrupt(views)
		rep.Escaped = rep.Injected
		return rep, nil
	}
}

// corrupt calls the chaos hook, if any, and returns the flips applied.
func (r *Region) corrupt(views []View) int {
	if r.Corrupt == nil {
		return 0
	}
	return r.Corrupt(views)
}

func (r *Region) runReplay(views []View, body func()) (RegionReport, error) {
	rep := RegionReport{}
	retries := r.Retries
	if retries <= 0 {
		retries = 2
	}
	snap := snapshot(&r.snap, views)
	body()
	rep.Injected = r.corrupt(views)
	accepted := r.Validate == nil || r.Validate(views)
	for !accepted && rep.Replays < retries {
		restore(views, snap)
		body()
		rep.Replays++
		accepted = r.Validate == nil || r.Validate(views)
	}
	if rep.Replays > 0 {
		rep.Detected = rep.Injected
		if accepted {
			rep.Corrected = rep.Injected
		} else {
			rep.Escalated = true
			return rep, fmt.Errorf("%w: validator still rejecting after %d replays", ErrSDCUnrecoverable, rep.Replays)
		}
	} else {
		rep.Escaped = rep.Injected
	}
	return rep, nil
}

func (r *Region) runVote(views []View, body func()) (RegionReport, error) {
	rep := RegionReport{}
	snap := snapshot(&r.snap, views)
	body()
	rep.Injected = r.corrupt(views)
	primary := snapshot(&r.primary, views)
	restore(views, snap)
	body()
	rep.Votes = 1
	if equalAll(views, primary) {
		rep.Escaped = rep.Injected
		return rep, nil
	}
	// The duplicates disagree: run a tie-break execution and take the
	// element-wise majority. views currently holds the second execution's
	// results; keep them aside and produce a third.
	rep.Detected = rep.Injected
	secondary := snapshot(&r.secondary, views)
	restore(views, snap)
	body()
	rep.Votes++
	if disagree := voteInto(views, primary, secondary); disagree {
		rep.Escalated = true
		return rep, fmt.Errorf("%w: 3-way disagreement in duplicate vote", ErrSDCUnrecoverable)
	}
	rep.Corrected = rep.Injected
	return rep, nil
}

// snapshot makes *dst a copy of views and returns it: (*dst)[i] is
// refreshed in place when it already has views[i]'s kind, shape and
// dryness, and is replaced by a clone otherwise.
func snapshot(dst *[]View, views []View) []View {
	s := *dst
	if len(s) < len(views) {
		s = append(s, make([]View, len(views)-len(s))...)
	}
	s = s[:len(views)]
	for i, v := range views {
		if !refreshCopy(s[i], v) {
			s[i] = CloneView(v)
		}
	}
	*dst = s
	return s
}

// refreshCopy copies v's contents into c and reports true when c is a
// view of v's kind, shape and dryness; otherwise it leaves c untouched.
func refreshCopy(c, v View) bool {
	switch v := v.(type) {
	case *F64View:
		c, ok := c.(*F64View)
		if !ok || c.dry != v.dry || !shapeEqual(c.shape, v.shape) {
			return false
		}
		copy(c.data, v.data)
	case *I32View:
		c, ok := c.(*I32View)
		if !ok || c.dry != v.dry || !shapeEqual(c.shape, v.shape) {
			return false
		}
		copy(c.data, v.data)
	default:
		return false
	}
	return true
}

func restore(views, snap []View) {
	for i := range views {
		CopyInto(views[i], snap[i])
	}
}

func equalAll(a, b []View) bool {
	for i := range a {
		if !ViewsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// voteInto writes the element-wise majority of (cur, a, b) into cur,
// returning true if any element shows a 3-way disagreement. cur holds one
// execution's results and stays untouched wherever it already agrees with
// either other copy.
func voteInto(cur, a, b []View) bool {
	disagree := false
	for i := range cur {
		switch cv := cur[i].(type) {
		case *F64View:
			av, bv := a[i].(*F64View), b[i].(*F64View)
			cd, ad, bd := cv.Data(), av.Data(), bv.Data()
			for j := range cd {
				cb, ab, bb := math.Float64bits(cd[j]), math.Float64bits(ad[j]), math.Float64bits(bd[j])
				switch {
				case cb == ab || cb == bb:
					// cur is in the majority already.
				case ab == bb:
					cd[j] = ad[j]
				default:
					disagree = true
				}
			}
		case *I32View:
			av, bv := a[i].(*I32View), b[i].(*I32View)
			cd, ad, bd := cv.Data(), av.Data(), bv.Data()
			for j := range cd {
				switch {
				case cd[j] == ad[j] || cd[j] == bd[j]:
				case ad[j] == bd[j]:
					cd[j] = ad[j]
				default:
					disagree = true
				}
			}
		default:
			panic(fmt.Sprintf("kokkos: cannot vote over view kind %T", cur[i]))
		}
	}
	return disagree
}

// FlipBit flips one bit in the concatenated element payload of views:
// frac in [0,1) selects the element proportionally across the views (in
// order) and bit selects the bit within it (mod the element width). It
// returns the label of the view hit and the flat element index within it,
// or ("", -1) if the views hold no elements. Dry views are skipped.
func FlipBit(views []View, frac float64, bit int) (string, int) {
	total := 0
	for _, v := range views {
		if !v.Dry() {
			total += v.Len()
		}
	}
	if total == 0 {
		return "", -1
	}
	if frac < 0 {
		frac = 0
	}
	k := int(frac * float64(total))
	if k >= total {
		k = total - 1
	}
	for _, v := range views {
		if v.Dry() {
			continue
		}
		if k >= v.Len() {
			k -= v.Len()
			continue
		}
		switch t := v.(type) {
		case *F64View:
			d := t.Data()
			d[k] = math.Float64frombits(math.Float64bits(d[k]) ^ (1 << (uint(bit) % 64)))
		case *I32View:
			d := t.Data()
			d[k] ^= 1 << (uint(bit) % 32)
		default:
			panic(fmt.Sprintf("kokkos: cannot flip bits in view kind %T", v))
		}
		return v.Label(), k
	}
	return "", -1
}

// BoundsValidator returns a Validate function accepting views whose F64
// elements are all finite and within [min, max] — the generic validator a
// physics application pairs with ResilientReplay (temperatures, energies,
// and coordinates all have known physical ranges). I32 views are accepted
// unconditionally.
func BoundsValidator(min, max float64) func(views []View) bool {
	return func(views []View) bool {
		for _, v := range views {
			f, ok := v.(*F64View)
			if !ok || f.Dry() {
				continue
			}
			for _, x := range f.Data() {
				if math.IsNaN(x) || math.IsInf(x, 0) || x < min || x > max {
					return false
				}
			}
		}
		return true
	}
}
