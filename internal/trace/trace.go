// Package trace provides the per-rank time accounting used to reproduce the
// stacked-category plots in the paper's Figures 5 and 6. Every virtual
// second a rank spends is attributed to exactly one category; the harness
// derives "Other" as the gap between job wall time and the accounted
// categories (matching the paper's `time mpirun` minus in-app timers).
//
// trace answers "where did the time go" as aggregates; the ordered record
// of what happened (failure detection, repair, restore, recompute) is the
// complementary internal/obs event log.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Category identifies where a rank's virtual time went. The first group
// mirrors Figure 5's legend; the second group holds MiniMD's per-section
// breakdown from Figure 6.
type Category int

const (
	// AppCompute is time in local application computation.
	AppCompute Category = iota
	// AppMPI is time blocked in MPI calls made by application code.
	AppMPI
	// ResilienceInit is time initializing resilience runtimes (Fenix init,
	// KR context creation, VeloC client startup, communicator repair).
	ResilienceInit
	// CheckpointFunc is synchronous time inside checkpoint functions (the
	// scratch memory copy for VeloC, the buddy exchange for IMR).
	CheckpointFunc
	// DataRecovery is time restoring checkpoint data after a failure.
	DataRecovery
	// Recompute is application time spent redoing work lost to a failure
	// (iterations between the restored checkpoint and the failure point).
	Recompute
	// Other is derived, never recorded directly: job wall time minus all
	// recorded categories (launch/teardown, re-initialization, MPI job
	// startup, idle spares).
	Other

	// ForceCompute is MiniMD's compute-bound force section (Figure 6).
	ForceCompute
	// Neighboring is MiniMD's neighbor-list construction section.
	Neighboring
	// Communicator is MiniMD's communication-bound exchange section.
	Communicator

	numCategories
)

var categoryNames = [...]string{
	AppCompute:     "App compute",
	AppMPI:         "App MPI",
	ResilienceInit: "Resilience Initialization",
	CheckpointFunc: "Checkpoint Function",
	DataRecovery:   "Data Recovery",
	Recompute:      "Recompute",
	Other:          "Other",
	ForceCompute:   "Force Compute",
	Neighboring:    "Neighboring",
	Communicator:   "Communicator",
}

// String returns the human-readable label used in the paper's figures.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Categories returns all recordable categories in display order.
func Categories() []Category {
	return []Category{
		AppCompute, AppMPI, ResilienceInit, CheckpointFunc,
		DataRecovery, Recompute, Other, ForceCompute, Neighboring, Communicator,
	}
}

// Recorder accumulates per-category virtual seconds for one rank. A Recorder
// is owned by a single rank goroutine and is not safe for concurrent use.
type Recorder struct {
	totals [numCategories]float64
	// section, when set, redirects AppCompute/AppMPI attribution into a
	// MiniMD profiling section (ForceCompute/Neighboring/Communicator).
	section Category
	// recompute, when true, redirects AppCompute into Recompute: the rank
	// is redoing iterations that were already executed before a failure.
	recompute bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{section: -1} }

// Add attributes d virtual seconds to category c, honoring any active
// section or recompute redirection for application categories.
func (r *Recorder) Add(c Category, d float64) {
	if d == 0 {
		return
	}
	if d < 0 {
		panic(fmt.Sprintf("trace: negative duration %v for %v", d, c))
	}
	switch c {
	case AppCompute:
		if r.recompute {
			c = Recompute
		} else if r.section >= 0 {
			c = r.section
		}
	case AppMPI:
		if r.recompute {
			c = Recompute
		} else if r.section >= 0 {
			c = r.section
		}
	}
	r.totals[c] += d
}

// AddRaw attributes d seconds to c with no redirection.
func (r *Recorder) AddRaw(c Category, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative duration %v for %v", d, c))
	}
	r.totals[c] += d
}

// BeginSection routes subsequent application time into the given MiniMD
// section until EndSection. Sections do not nest.
func (r *Recorder) BeginSection(c Category) {
	if c != ForceCompute && c != Neighboring && c != Communicator {
		panic(fmt.Sprintf("trace: %v is not a profiling section", c))
	}
	r.section = c
}

// EndSection stops section redirection.
func (r *Recorder) EndSection() { r.section = -1 }

// SetRecompute toggles recompute attribution: while enabled, application
// compute time counts as Recompute (work redone after a failure).
func (r *Recorder) SetRecompute(on bool) { r.recompute = on }

// Move reattributes d seconds from category `from` to category `to`,
// clamped to the amount actually recorded in `from`. Resilience layers use
// it to fold MPI time spent inside their primitives (e.g. the IMR buddy
// exchange) into the category the paper reports it under.
func (r *Recorder) Move(from, to Category, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative move %v", d))
	}
	if d > r.totals[from] {
		d = r.totals[from]
	}
	r.totals[from] -= d
	r.totals[to] += d
}

// Get returns the accumulated seconds in category c.
func (r *Recorder) Get(c Category) float64 { return r.totals[c] }

// Snapshot returns a copy of the per-category totals.
func (r *Recorder) Snapshot() Times {
	var t Times
	copy(t[:], r.totals[:])
	return t
}

// Times is an immutable per-category snapshot.
type Times [numCategories]float64

// Get returns the seconds recorded in category c.
func (t Times) Get(c Category) float64 { return t[c] }

// Total returns the sum across categories.
func (t Times) Total() float64 {
	var s float64
	for _, v := range t {
		s += v
	}
	return s
}

// Add returns the element-wise sum of two snapshots.
func (t Times) Add(o Times) Times {
	var out Times
	for i := range t {
		out[i] = t[i] + o[i]
	}
	return out
}

// Scale returns t with every category multiplied by f.
func (t Times) Scale(f float64) Times {
	var out Times
	for i := range t {
		out[i] = t[i] * f
	}
	return out
}

// WithOther returns t with the Other category set to wall - Total(),
// clamped at zero. This mirrors the paper's derivation of "Other" from
// bash-measured mpirun time.
func (t Times) WithOther(wall float64) Times {
	out := t
	out[Other] = 0
	gap := wall - out.Total()
	if gap > 0 {
		out[Other] = gap
	}
	return out
}

// String renders the snapshot as "name=seconds" pairs for debugging.
func (t Times) String() string {
	var parts []string
	for _, c := range Categories() {
		if t[c] != 0 {
			parts = append(parts, fmt.Sprintf("%s=%.4f", c, t[c]))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
