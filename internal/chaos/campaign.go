package chaos

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs/analyze"
	"repro/internal/sim"
)

// Campaign modes: each derives a different adversarial schedule shape.
const (
	// ModeIteration kills one member at an iteration boundary — the
	// baseline the core.FailurePlan harness already covers.
	ModeIteration = "iteration"
	// ModeRegion kills one member inside the checkpoint path: at region
	// entry, at the KR commit handoff, or inside the VeloC client.
	ModeRegion = "region"
	// ModeCollective kills one member on entry to an MPI collective, so
	// peers are blocked in the same rendezvous when it dies.
	ModeCollective = "collective"
	// ModeFlush crashes a member's whole node while its checkpoint flush
	// window is open: the PFS copy never completes and restart must fall
	// back to an older complete version.
	ModeFlush = "flush"
	// ModeNested kills a second member the moment it enters Fenix recovery
	// for the first kill — a failure during an in-progress rebuild.
	ModeNested = "nested"
	// ModeSpare kills a spare while it is still blocked in Fenix
	// initialization, then kills a member so the pruned pool is exercised.
	ModeSpare = "spare"
	// ModeNode crashes one node hosting two members: correlated
	// simultaneous kills plus loss of the node's storage.
	ModeNode = "node"
	// ModeStormShrink kills more members than there are spares with
	// shrink-on-exhaustion enabled: the job must finish on a compacted
	// communicator.
	ModeStormShrink = "storm-shrink"
	// ModeStormFail kills more members than there are spares with
	// shrinking disabled: the only correct outcome is ErrOutOfSpares.
	ModeStormFail = "storm-fail"
	// ModeStormWave is the spare-exhaustion storm at scale: 2-3 kill waves
	// against a 32-rank (or larger, via the scale override) world with two
	// spares and shrink-on-exhaustion. The first wave fires one more kill
	// than there are spares — both spares are consumed and the first shrink
	// happens in the same storm — and every later wave kills two more
	// members of the already-compacted world, forcing a further shrink with
	// the pool empty.
	ModeStormWave = "storm-wave"
	// ModeSDCRegion flips one bit in a resilient parallel region's views
	// under the replay policy: the bounds validator catches wild flips
	// (exponent/sign) and a clean re-execution repairs them; small mantissa
	// flips stay in-bounds and escape — both outcomes must account exactly.
	ModeSDCRegion = "sdc-region"
	// ModeSDCVote is the same view flip under duplicate-and-vote: the
	// bitwise duplicate comparison detects any flip, and the element-wise
	// majority over a tie-break execution repairs it.
	ModeSDCVote = "sdc-vote"
	// ModeSDCBlob flips one bit in a serialized checkpoint blob on its way
	// to scratch, under the checksum policy: read-back verification detects
	// the corruption and one clean re-write repairs it before commit.
	ModeSDCBlob = "sdc-blob"
	// ModeSDCMixed lands a view flip and a process kill in the same run:
	// the SDC layer must resolve the flip locally, independent of (and
	// without perturbing) the Fenix rebuild the kill triggers.
	ModeSDCMixed = "sdc-mixed"
	// ModeLocalized kills one member under the localized message-logging
	// strategy (core.StrategyLocalized, DESIGN.md §12): only the
	// replacement rolls back and recomputes, served from the sender-based
	// log, while survivors pause in place — and the final answer must still
	// match the failure-free reference bitwise.
	ModeLocalized = "localized"
	// ModeLocalizedShrink exhausts the spare pool under localized recovery
	// with shrink-on-exhaustion enabled and a two-rank rehost reserve
	// behind the single spare: reserve substitutions absorb the storm
	// without compacting the communicator, so the message log stays live
	// across all three kills and byte-identity still binds.
	ModeLocalizedShrink = "localized-shrink"
)

// Modes lists every campaign mode, in matrix order. Seed k derives cell
// k mod len(Modes)*len(Apps), so adding a mode remaps seeds: the rows of
// TestCampaignMatrix name the cell each seed must derive, and its golden
// file is regenerated with the new rows.
var Modes = []string{
	ModeIteration, ModeRegion, ModeCollective, ModeFlush, ModeNested,
	ModeSpare, ModeNode, ModeStormShrink, ModeStormFail, ModeStormWave,
	ModeSDCRegion, ModeSDCVote, ModeSDCBlob, ModeSDCMixed,
	ModeLocalized, ModeLocalizedShrink,
}

// Apps lists the campaign applications, in matrix order.
var Apps = []string{AppHeatdis, AppMiniMD}

// Campaign geometry: small enough that a 50-seed sweep takes seconds,
// large enough that every kill lands mid-run with checkpoints before and
// iterations after it.
const (
	cRanks    = 4
	cIters    = 24
	cInterval = 6
	// cStormRanks is the storm-wave world size when no scale override is
	// given: large enough that two shrink waves still leave a wide world to
	// re-decompose, small enough for the per-commit CI sweep.
	cStormRanks = 32
)

// BaseRunConfig returns the campaign's standard small-cell geometry for
// app with an empty fault schedule: the starting point for custom
// experiments (e.g. the SDC coverage matrix) that draw their own faults
// instead of the seed-derived matrix cell.
func BaseRunConfig(seed uint64, app string) RunConfig {
	return RunConfig{
		Seed: seed, App: app,
		Ranks: cRanks, Spares: 2, RanksPerNode: 1,
		Iters: cIters, Interval: cInterval,
		Flush: cluster.FlushPolicy{Window: 2, Coalesce: true},
	}
}

// ConfigForSeed derives a full run configuration from a seed. The matrix
// cell (mode × app) comes from the seed itself so a sweep over seeds
// 0..N-1 covers all cells evenly; victims and kill timing come from a
// deterministic RNG stream. Non-empty mode/app override the matrix cell
// (for filtered campaigns and replay experiments) without changing the
// rest of the derivation.
func ConfigForSeed(seed uint64, mode, app string) (RunConfig, error) {
	return ConfigForSeedScaled(seed, mode, app, 0)
}

// ConfigForSeedScaled is ConfigForSeed with a storm-scale override:
// stormRanks (when positive) replaces the default 32-rank world of the
// storm-wave mode, e.g. 64 for the large cell behind `make chaos
// CHAOS_SCALE=64`. Victim draws depend on the world size, so each scale is
// its own deterministic family; all other modes ignore the override
// entirely and derive identically at every scale.
func ConfigForSeedScaled(seed uint64, mode, app string, stormRanks int) (RunConfig, error) {
	cell := int(seed % uint64(len(Modes)*len(Apps)))
	if mode == "" {
		mode = Modes[cell%len(Modes)]
	}
	if app == "" {
		app = Apps[cell/len(Modes)]
	}
	if app != AppHeatdis && app != AppMiniMD {
		return RunConfig{}, fmt.Errorf("chaos: unknown app %q", app)
	}

	cfg := RunConfig{
		Seed: seed, App: app, Mode: mode,
		Ranks: cRanks, Spares: 2, RanksPerNode: 1,
		Iters: cIters, Interval: cInterval,
		// Every campaign run exercises the flush scheduler. The policy is a
		// cell constant — not drawn from the RNG stream — so kill schedules
		// are identical to unscheduled sweeps of the same seeds.
		Flush: cluster.FlushPolicy{Window: 2, Coalesce: true},
	}
	// An RNG stream decoupled from the cell index, so the same seed
	// replayed with a mode override draws the same victims/timing.
	rng := sim.NewRNG(seed).Split(0xc4a05)
	member := func() int { return rng.Intn(cfg.Ranks) }
	// Member kills fire at iteration-ish hits well inside the run: after
	// the first checkpoint epoch, with iterations left to recompute.
	iterHit := func() int { return 2 + rng.Intn(18) }
	// Commit-path points are visited once per checkpoint epoch (4 epochs
	// at interval 6 over 24 iterations); stay off the last epoch.
	epochHit := func() int { return rng.Intn(3) }

	switch mode {
	case ModeIteration:
		cfg.Schedule.Kills = []Kill{{Rank: member(), Point: PointIteration, Hit: iterHit()}}
	case ModeRegion:
		points := []string{PointKRRegion, PointKRCommit, PointVeloCCheckpoint}
		pt := points[rng.Intn(len(points))]
		hit := epochHit()
		if pt == PointKRRegion { // visited every iteration, not per epoch
			hit = iterHit()
		}
		cfg.Schedule.Kills = []Kill{{Rank: member(), Point: pt, Hit: hit}}
	case ModeCollective:
		// Hit 0 is the victim's first collective — the version-discovery
		// allreduce during session setup, before any iteration ran.
		cfg.Schedule.Kills = []Kill{{Rank: member(), Point: PointCollective, Hit: 0}}
	case ModeFlush:
		cfg.Schedule.Kills = []Kill{{Rank: member(), Point: PointVeloCFlush, Hit: epochHit(), NodeCrash: true}}
	case ModeNested:
		a := member()
		b := (a + 1 + rng.Intn(cfg.Ranks-1)) % cfg.Ranks
		cfg.Schedule.Kills = []Kill{
			{Rank: a, Point: PointIteration, Hit: 4 + rng.Intn(12)},
			// b's first entry into Fenix recovery is triggered by a's
			// death, so this is a kill inside the in-progress rebuild.
			{Rank: b, Point: PointFenixRecover, Hit: 0},
		}
	case ModeSpare:
		spare := cfg.Ranks + rng.Intn(cfg.Spares)
		cfg.Schedule.Kills = []Kill{
			{Rank: spare, Point: PointFenixSpareWait, Hit: 0},
			{Rank: member(), Point: PointIteration, Hit: iterHit()},
		}
	case ModeNode:
		// Two ranks per node: node 1 hosts members 2 and 3, the spares
		// land on node 2. Killing both members at the same iteration with
		// NodeCrash models the whole node disappearing.
		cfg.RanksPerNode = 2
		hit := iterHit()
		cfg.Schedule.Kills = []Kill{
			{Rank: 2, Point: PointIteration, Hit: hit, NodeCrash: true},
			{Rank: 3, Point: PointIteration, Hit: hit, NodeCrash: true},
		}
	case ModeStormShrink:
		cfg.Spares = 1
		cfg.Shrink = true
		v := rng.Intn(cfg.Ranks)
		h := 2 + rng.Intn(5)
		var kills []Kill
		for i := 0; i < 3; i++ {
			kills = append(kills, Kill{Rank: (v + i) % cfg.Ranks, Point: PointIteration, Hit: h})
			h += 4 + rng.Intn(2)
		}
		cfg.Schedule.Kills = kills
	case ModeStormFail:
		cfg.Spares = 1
		cfg.ExpectFail = true
		v := rng.Intn(cfg.Ranks)
		h := 2 + rng.Intn(7)
		cfg.Schedule.Kills = []Kill{
			{Rank: v, Point: PointIteration, Hit: h},
			{Rank: (v + 1 + rng.Intn(cfg.Ranks-1)) % cfg.Ranks, Point: PointIteration, Hit: h + 4 + rng.Intn(2)},
		}
	case ModeStormWave:
		if stormRanks > 0 {
			cfg.Ranks = stormRanks
		} else {
			cfg.Ranks = cStormRanks
		}
		cfg.Spares = 2
		cfg.Shrink = true
		waves := 2 + rng.Intn(2)
		// Victims are drawn without replacement: every kill targets an
		// original member that is still alive when its wave arrives (world
		// ranks are stable identities; compaction only retires dead slots).
		picked := make(map[int]bool)
		victim := func() int {
			for {
				v := rng.Intn(cfg.Ranks)
				if !picked[v] {
					picked[v] = true
					return v
				}
			}
		}
		// Wave hits are visit counts at core.iteration, spaced far enough
		// apart that each wave's repairs complete (and its recomputed
		// iterations replay) before the next wave lands, and low enough
		// that the last wave still fires before the 24-iteration run ends.
		h := 2 + rng.Intn(3)
		var kills []Kill
		for w := 0; w < waves; w++ {
			n := 2
			if w == 0 {
				n = cfg.Spares + 1 // exhaust the pool and shrink in one storm
			}
			for i := 0; i < n; i++ {
				kills = append(kills, Kill{Rank: victim(), Point: PointIteration, Hit: h})
			}
			h += 5 + rng.Intn(2)
		}
		cfg.Schedule.Kills = kills
	case ModeSDCRegion:
		// One flip in the region's views under replay. High bits (sign +
		// exponent) mostly produce out-of-bounds values the validator
		// catches; the occasional in-bounds result escapes, which the
		// accounting invariants absorb (escaped runs skip the bitwise
		// reference comparison).
		cfg.SDC = "replay"
		cfg.Schedule.Flips = []Flip{{
			Rank: member(), Point: PointKokkosRegion, Hit: iterHit(),
			Frac: rng.Float64(), Bit: 52 + rng.Intn(12),
		}}
	case ModeSDCVote:
		// Any bit — mantissa included — under duplicate-and-vote; the
		// bitwise duplicate comparison must detect it regardless.
		cfg.SDC = "vote"
		cfg.Schedule.Flips = []Flip{{
			Rank: member(), Point: PointKokkosRegion, Hit: iterHit(),
			Frac: rng.Float64(), Bit: rng.Intn(64),
		}}
	case ModeSDCBlob:
		// One byte flipped in a checkpoint blob on its way to scratch; the
		// checksum policy's read-back verification detects it and a clean
		// re-write repairs it before the version commits.
		cfg.SDC = "checksum"
		cfg.Schedule.Flips = []Flip{{
			Rank: member(), Point: PointScratchBlob, Hit: epochHit(),
			Frac: rng.Float64(), Bit: rng.Intn(8),
		}}
	case ModeLocalized:
		cfg.Localized = true
		// The kill lands after the first checkpoint epoch committed
		// (interval 6 → first commit at iteration 5), so the replacement
		// takes the restore-and-replay path rather than the from-scratch
		// reset that fires when no version exists yet.
		cfg.Schedule.Kills = []Kill{{Rank: member(), Point: PointIteration, Hit: 7 + rng.Intn(13)}}
	case ModeLocalizedShrink:
		cfg.Localized = true
		cfg.Shrink = true
		cfg.Spares = 1
		cfg.Rehost = 2
		first := rng.Intn(cfg.Ranks)
		h := 7 + rng.Intn(4)
		var kills []Kill
		for i := 0; i < 3; i++ {
			kills = append(kills, Kill{Rank: (first + i) % cfg.Ranks, Point: PointIteration, Hit: h})
			h += 4 + rng.Intn(2)
		}
		cfg.Schedule.Kills = kills
	case ModeSDCMixed:
		// A view flip early and a member kill later in the same run, on
		// different ranks so both always fire: SDC resolution is local and
		// must neither delay nor depend on the Fenix rebuild.
		cfg.SDC = "vote"
		fr := member()
		kr := (fr + 1 + rng.Intn(cfg.Ranks-1)) % cfg.Ranks
		cfg.Schedule.Flips = []Flip{{
			Rank: fr, Point: PointKokkosRegion, Hit: 2 + rng.Intn(4),
			Frac: rng.Float64(), Bit: rng.Intn(64),
		}}
		cfg.Schedule.Kills = []Kill{{Rank: kr, Point: PointIteration, Hit: 8 + rng.Intn(8)}}
	default:
		return RunConfig{}, fmt.Errorf("chaos: unknown mode %q", mode)
	}
	return cfg, nil
}

// CampaignConfig parameterizes a seed sweep.
type CampaignConfig struct {
	// Seeds to run; each derives its cell via ConfigForSeed.
	Seeds []uint64
	// Mode and App, when non-empty, pin every run to that mode/app instead
	// of sweeping the matrix.
	Mode, App string
	// StormRanks, when positive, overrides the storm-wave world size
	// (ConfigForSeedScaled); zero keeps the 32-rank default.
	StormRanks int
	// Timeout is the per-run real-time watchdog (DefaultTimeout if zero).
	Timeout time.Duration
	// EventsDir, when non-empty, writes each run's event log to
	// <EventsDir>/seed-<seed>.jsonl and writes an analyze.Manifest tagging
	// every file with its (mode × app) cell — the input layout
	// `obsreport -sweep` aggregates. The directory is created if absent.
	EventsDir string
	// Progress, if non-nil, receives each finished run as it completes.
	Progress func(*RunReport)
}

// RunCampaign sweeps the seeds sequentially (runs are internally parallel —
// one goroutine per simulated rank) and aggregates the reports.
func RunCampaign(cc CampaignConfig) (*CampaignReport, error) {
	if cc.EventsDir != "" {
		if err := os.MkdirAll(cc.EventsDir, 0o755); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}
	refs := NewRefCache()
	camp := &CampaignReport{ByMode: make(map[string]int)}
	var manifest analyze.Manifest
	for _, seed := range cc.Seeds {
		cfg, err := ConfigForSeedScaled(seed, cc.Mode, cc.App, cc.StormRanks)
		if err != nil {
			return nil, err
		}
		var stream io.Writer
		var eventsFile *os.File
		if cc.EventsDir != "" {
			name := fmt.Sprintf("seed-%d.jsonl", seed)
			eventsFile, err = os.Create(filepath.Join(cc.EventsDir, name))
			if err != nil {
				return nil, fmt.Errorf("chaos: %w", err)
			}
			stream = eventsFile
			manifest.Runs = append(manifest.Runs, analyze.RunMeta{
				Seed: seed, Mode: cfg.Mode, App: cfg.App, Ranks: cfg.Ranks,
				Events: name,
			})
		}
		rep := RunOneStreaming(cfg, refs, cc.Timeout, stream)
		if eventsFile != nil {
			if err := eventsFile.Close(); err != nil {
				return nil, fmt.Errorf("chaos: %w", err)
			}
		}
		camp.Seeds++
		camp.ByMode[cfg.Mode]++
		switch {
		case rep.Hung:
			camp.Hangs++
		case rep.OK():
			camp.Passed++
		default:
			camp.Violated++
		}
		camp.Runs = append(camp.Runs, rep)
		if cc.Progress != nil {
			cc.Progress(rep)
		}
	}
	if cc.EventsDir != "" {
		f, err := os.Create(filepath.Join(cc.EventsDir, analyze.ManifestName))
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		if err := manifest.WriteManifest(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("chaos: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}
	return camp, nil
}

// SeedRange returns [start, start+n) for sweep construction.
func SeedRange(start uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = start + uint64(i)
	}
	return seeds
}
