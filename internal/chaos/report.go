package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// SpanBrief is the deterministic slice of an analyzer recovery span a run
// report carries: failed slots are sorted (simultaneous kills have
// scheduling-dependent event order) and only virtual-time fields appear,
// so a replayed seed reproduces the report byte for byte.
type SpanBrief struct {
	Kind        string  `json:"kind"`
	Generation  int     `json:"generation"`
	FailedSlots []int   `json:"failed_slots,omitempty"`
	Replaced    int     `json:"replaced"`
	Shrunk      int     `json:"shrunk"`
	Start       float64 `json:"start_s"`
	End         float64 `json:"end_s"`
}

// RunReport is the outcome of one chaos run: the exact configuration that
// produced it (sufficient to replay), the cross-layer accounting, and any
// invariant violations. An empty Violations slice means the stack survived
// the schedule and every layer's story reconciled.
type RunReport struct {
	RunConfig

	Hung        bool    `json:"hung,omitempty"`
	JobFailed   bool    `json:"job_failed"`
	Error       string  `json:"error,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	Launches    int     `json:"launches"`

	KillsFired      int `json:"kills_fired"`
	SpareKillsFired int `json:"spare_kills_fired,omitempty"`
	Injected        int `json:"failures_injected"`
	Repaired        int `json:"failures_repaired"`
	Unrepaired      int `json:"failures_unrepaired"`
	Survived        int `json:"failures_survived"`
	Rebuilds        int `json:"rebuilds"`
	SparesActivated int `json:"spares_activated"`
	Shrunk          int `json:"shrunk"`
	Shrinks         int `json:"mpi_shrinks,omitempty"`
	FinalSize       int `json:"final_size"`

	// Flush-scheduler accounting (zero when cfg.Flush is the zero policy).
	// Queued counts flush_queued events, Started flush_start events; every
	// queued flush that never started was either coalesced away by a newer
	// version or discarded with its node (crash, or owner shrunk away
	// mid-queue): Queued - Started = Coalesced + Discarded.
	FlushesQueued    int `json:"flushes_queued,omitempty"`
	FlushesStarted   int `json:"flushes_started,omitempty"`
	FlushesCoalesced int `json:"flushes_coalesced,omitempty"`
	FlushesDiscarded int `json:"flushes_discarded,omitempty"`

	// Message-log accounting (all zero unless cfg.Localized). MsgsLogged
	// counts sends and collective completions captured into the sender-based
	// log, MsgsReplayed log serves consumed during localized recovery, and
	// MsgsTrimmed entries garbage-collected when checkpoint commits advanced
	// the watermark. Rehosts counts substitutions drawn from the second-line
	// rehost reserve (spare exhaustion absorbed without compaction), and
	// FlushReorders deep-skew submissions the flush scheduler observed
	// arriving after a virtually-later same-node commit.
	MsgsLogged    int `json:"msgs_logged,omitempty"`
	MsgsReplayed  int `json:"msgs_replayed,omitempty"`
	MsgsTrimmed   int `json:"msgs_trimmed,omitempty"`
	Rehosts       int `json:"rehosts,omitempty"`
	FlushReorders int `json:"flush_reorders,omitempty"`

	// SDC accounting (zero when the schedule carries no flips). FlipsFired
	// counts scheduled bit flips the injector actually applied; the sdc_*
	// counters mirror the obs metrics and satisfy
	// SDCInjected == SDCDetected + SDCEscaped on every non-hung run.
	FlipsFired   int `json:"flips_fired,omitempty"`
	SDCInjected  int `json:"sdc_injected,omitempty"`
	SDCDetected  int `json:"sdc_detected,omitempty"`
	SDCCorrected int `json:"sdc_corrected,omitempty"`
	SDCEscaped   int `json:"sdc_escaped,omitempty"`
	SDCReplays   int `json:"sdc_replays,omitempty"`
	SDCVotes     int `json:"sdc_votes,omitempty"`

	Checksum float64     `json:"checksum,omitempty"`
	Spans    []SpanBrief `json:"spans,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

func (r *RunReport) addViolation(msg string) { r.Violations = append(r.Violations, msg) }

// OK reports whether the run satisfied every invariant.
func (r *RunReport) OK() bool { return len(r.Violations) == 0 }

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Line is the one-line campaign summary of this run.
func (r *RunReport) Line() string {
	status := "ok"
	switch {
	case r.Hung:
		status = "HUNG"
	case !r.OK():
		status = fmt.Sprintf("VIOLATED(%d)", len(r.Violations))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %-6d %-8s %-12s kills %d/%d inj %d rep %d unrep %d shrunk %d",
		r.Seed, r.App, r.Mode, r.KillsFired, len(r.Schedule.Kills),
		r.Injected, r.Repaired, r.Unrepaired, r.Shrunk)
	if len(r.Schedule.Flips) > 0 {
		fmt.Fprintf(&b, " sdc %d/%d det %d corr %d esc %d",
			r.FlipsFired, len(r.Schedule.Flips), r.SDCDetected, r.SDCCorrected, r.SDCEscaped)
	}
	fmt.Fprintf(&b, "  %s", status)
	return b.String()
}

// CampaignReport aggregates a seed sweep.
type CampaignReport struct {
	Seeds    int            `json:"seeds"`
	Passed   int            `json:"passed"`
	Violated int            `json:"violated"`
	Hangs    int            `json:"hangs"`
	ByMode   map[string]int `json:"by_mode"`
	Runs     []*RunReport   `json:"runs"`
}

// OK reports whether every run in the campaign passed.
func (c *CampaignReport) OK() bool { return c.Violated == 0 && c.Hangs == 0 }

// WriteJSON writes the campaign report as indented JSON.
func (c *CampaignReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
