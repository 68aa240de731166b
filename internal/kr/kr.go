// Package kr reproduces Kokkos Resilience, the control-flow resilience
// layer of the paper's integrated system. Applications wrap each
// checkpoint region (typically a loop body) in Checkpoint; the context
// decides, per iteration, whether to execute the region, restore its data
// from a checkpoint (recovery), and/or write a new checkpoint through the
// configured data backend.
//
// The package includes the two modifications the paper contributes
// (Section V):
//
//   - The VeloC backend can be initialized in non-collective (single) mode
//     and performs the globally-best-checkpoint reduction manually over
//     whatever communicator the context currently holds, making it
//     compatible with Fenix's replaceable resilient communicator.
//   - Context.Reset accepts a new communicator: it clears the checkpoint
//     metadata cache (a checkpoint finished locally may not have finished
//     globally), updates the cached rank ID in itself and in VeloC, and
//     re-arms recovery — the operations Kokkos Resilience needs after a
//     Fenix repair.
//
// View capture mirrors Kokkos Resilience's automatic detection: every view
// reachable from the region is classified as checkpointed (first sight of
// its allocation), skipped (duplicate capture of an allocation already
// checkpointed), or alias (user-declared swap-space labels), reproducing
// the census in the paper's Figure 7.
package kr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/kokkos"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrNoCheckpoint is returned when recovery is requested but no version
// exists.
var ErrNoCheckpoint = errors.New("kr: no checkpoint available")

// ErrCorruptBlob is returned when a checkpoint blob fails the KR codec's
// own checksum — an integrity layer independent of (and above) the data
// backend's, so a flip that slips past VeloC is still caught before the
// views are overwritten with garbage.
var ErrCorruptBlob = errors.New("kr: checkpoint blob failed codec checksum")

// ErrRejected is returned by a backend whose integrity verification
// discarded the version before commit (see veloc.ErrRejected). Context
// treats it as "this checkpoint did not happen": the previous good
// version stays latest and the run carries on.
var ErrRejected = errors.New("kr: checkpoint version rejected by data backend")

// Backend is a data-resilience backend (VeloC or Fenix IMR).
type Backend interface {
	// Checkpoint persists blob as the given version. simBytes is the
	// blob's size in the simulation's cost model (see kokkos.View.SimBytes).
	Checkpoint(version int, blob []byte, simBytes int) error
	// Restore retrieves the blob for version.
	Restore(version int) ([]byte, error)
	// LatestVersion returns the newest version restorable at every rank of
	// comm, or ErrNoCheckpoint.
	LatestVersion(comm *mpi.Comm) (int, error)
	// SetComm installs a replacement communicator after a repair.
	SetComm(comm *mpi.Comm)
	// SetRank updates the logical rank identity (shrunk continuation).
	SetRank(rank int)
}

// Config configures a Context.
type Config struct {
	// Interval checkpoints every Interval-th iteration (counting from 1:
	// iterations Interval-1, 2*Interval-1, ... are checkpointed).
	Interval int
	// RestoreSurvivors controls whether ranks whose memory survived the
	// failure restore checkpoint data during recovery. Setting it false
	// enables the paper's partial-rollback strategy: survivors keep their
	// in-progress data and only the recovered rank rolls back.
	RestoreSurvivors bool
	// Recovered reports whether this rank's memory was lost (Fenix role
	// Recovered). Consulted only when RestoreSurvivors is false.
	Recovered func() bool
	// Localized selects message-log-backed localized recovery (DESIGN.md
	// §12): on the restored iteration only the Recovered rank rolls back,
	// and — unlike partial rollback — the region body is NOT re-executed
	// collectively. The recovered rank re-executes forward alone, served
	// by the message log, while survivors skip already-executed iterations
	// (the session layer drives the skip and calls SkipRestore). Requires
	// RestoreSurvivors=false and a Recovered callback. When the message
	// log has been disabled (shrink compaction), recovery degrades to full
	// rollback: every rank restores and communication stays aligned.
	Localized bool
}

func (c Config) shouldCheckpoint(iter int) bool {
	return c.Interval > 0 && (iter+1)%c.Interval == 0
}

// Context is one rank's Kokkos Resilience handle.
type Context struct {
	p       *mpi.Proc
	comm    *mpi.Comm
	backend Backend
	cfg     Config

	latest          int // newest globally-available version; -1 if none
	recoveryPending bool
	aliases         map[string]bool
	captured        []kokkos.View // the most recent Checkpoint call's capture list
	checkpointed    []kokkos.View // its unique serialized views, reused per call
}

// perRegionOverhead is the control-flow bookkeeping cost of one checkpoint
// region invocation, in seconds; perViewOverhead is added per captured
// view. These are the small costs that make KR "no or negligible overhead"
// in Figure 5.
const (
	perRegionOverhead = 2e-5
	perViewOverhead   = 1e-6
)

// MakeContext creates a context over comm using the given backend. It
// queries the backend for existing checkpoints so that a relaunched
// (fail-restart) process resumes transparently: LatestVersion tells the
// application where to restart its loop.
func MakeContext(p *mpi.Proc, comm *mpi.Comm, backend Backend, cfg Config) (*Context, error) {
	if cfg.RestoreSurvivors && cfg.Recovered != nil {
		return nil, errors.New("kr: Recovered callback only meaningful with RestoreSurvivors=false")
	}
	if cfg.Localized && (cfg.RestoreSurvivors || cfg.Recovered == nil) {
		return nil, errors.New("kr: Localized requires RestoreSurvivors=false and a Recovered callback")
	}
	ctx := &Context{p: p, comm: comm, backend: backend, cfg: cfg, latest: -1, aliases: make(map[string]bool)}
	// Wire the communicator through to the backend from the start, not only
	// on Reset: the VeloC flush scheduler derives its PFS congestion share
	// from the comm size, and a fresh context (initial entry, or a recovered
	// replacement building its session from scratch) otherwise leaves the
	// client comm-less until the first repair.
	backend.SetComm(comm)
	p.ChargeTime(trace.ResilienceInit, perRegionOverhead)
	p.Event(obs.LayerKR, obs.EvKRInit, obs.KV("comm_size", comm.Size()))
	v, err := backend.LatestVersion(comm)
	switch {
	case err == nil:
		ctx.latest = v
		ctx.recoveryPending = true
		p.Event(obs.LayerKR, obs.EvKRRecoveryArmed, obs.KV("version", v))
	case errors.Is(err, ErrNoCheckpoint):
		// Fresh start.
	default:
		return nil, err
	}
	return ctx, nil
}

// Reset re-arms the context after a Fenix repair: install the new
// communicator, propagate it (and the rank ID) to the backend, drop the
// cached checkpoint metadata, and re-query the globally-best version.
func (c *Context) Reset(newComm *mpi.Comm) error {
	c.comm = newComm
	c.backend.SetComm(newComm)
	c.backend.SetRank(newComm.Rank(c.p))
	c.latest = -1
	c.recoveryPending = false
	c.p.ChargeTime(trace.ResilienceInit, perRegionOverhead)
	c.p.Event(obs.LayerKR, obs.EvKRReset, obs.KV("comm_size", newComm.Size()))
	v, err := c.backend.LatestVersion(newComm)
	switch {
	case err == nil:
		c.latest = v
		c.recoveryPending = true
		c.p.Event(obs.LayerKR, obs.EvKRRecoveryArmed, obs.KV("version", v))
		return nil
	case errors.Is(err, ErrNoCheckpoint):
		return nil
	default:
		return err
	}
}

// LatestVersion returns the newest globally-available checkpoint version,
// or -1 if none exists. After a failure the application restarts its loop
// from this iteration (Figure 4).
func (c *Context) LatestVersion() int { return c.latest }

// RecoveryPending reports whether the next matching Checkpoint call will
// restore instead of execute.
func (c *Context) RecoveryPending() bool { return c.recoveryPending }

// SkipRestore disarms a pending recovery without touching view data. The
// session layer calls it for a survivor that skips the restored iteration
// under localized recovery: its live data already reflects that iteration,
// so the pending restore must be consumed, not executed.
func (c *Context) SkipRestore() { c.recoveryPending = false }

// Comm returns the context's current communicator.
func (c *Context) Comm() *mpi.Comm { return c.comm }

// DeclareAliases marks `alias` as a user-declared alias of `primary`:
// the alias view is known to contain the same data (e.g. the back buffer
// of a swap pair) and is never checkpointed.
func (c *Context) DeclareAliases(primary, alias string) {
	_ = primary // recorded for documentation; exclusion is by alias label
	c.aliases[alias] = true
}

// Checkpoint wraps one iteration of a checkpoint region: the analogue of
// KokkosResilience::checkpoint(ctx, label, iter, lambda). views lists the
// Kokkos views the region's lambda captures (the simulation's stand-in for
// automatic capture detection). Behaviour per call:
//
//   - If recovery is pending and iter equals the restored version, the
//     region body is skipped and the views are overwritten from the
//     checkpoint (for survivors only if RestoreSurvivors).
//   - Otherwise the body runs.
//   - If the iteration falls on the checkpoint interval, the captured
//     views are serialized and handed to the data backend.
func (c *Context) Checkpoint(label string, iter int, views []kokkos.View, body func() error) error {
	c.p.Inject("kr.region")
	c.captured = views
	c.checkpointed = checkpointedViews(c.checkpointed, views, c.aliases)
	ckpt := c.checkpointed
	c.p.ChargeTime(trace.ResilienceInit, perRegionOverhead+perViewOverhead*float64(len(views)))
	c.p.Obs().Registry().Counter(obs.MKRRegions).Inc()

	if c.recoveryPending && iter == c.latest {
		c.recoveryPending = false
		switch {
		case c.cfg.RestoreSurvivors || (c.cfg.Localized && !c.p.MsgLogActive()):
			// Full rollback: every rank restores and the region body is
			// skipped for this iteration (its effects are the restored
			// data), keeping all ranks' communication aligned. Localized
			// recovery degrades to this path when the message log was
			// disabled (shrink compaction changed slot identity).
			return c.restore(label, iter, ckpt, "")
		case c.cfg.Localized:
			// Localized recovery: only the recovered rank restores, and the
			// region body is NOT re-executed collectively — the restored
			// data is this iteration's effect, and the recovered rank
			// re-executes forward alone, served by the message log, while
			// survivors pause in place (the session layer skips their
			// executed iterations via SkipRestore, so a survivor normally
			// never reaches this branch; one that does executes live).
			if c.cfg.Recovered() {
				return c.restore(label, iter, ckpt, "localized")
			}
		case c.cfg.Recovered != nil && c.cfg.Recovered():
			// Partial rollback: only the recovered rank rolls its data back,
			// then ALL ranks execute the body — survivors with their newer
			// in-progress data, the recovered rank with checkpoint data — so
			// collectives stay aligned while the solver re-converges.
			if err := c.restore(label, iter, ckpt, ""); err != nil {
				return err
			}
		}
	}

	if err := body(); err != nil {
		return err
	}

	if c.cfg.shouldCheckpoint(iter) {
		blob := serializeViews(ckpt)
		simBytes := 0
		for _, v := range ckpt {
			simBytes += v.SimBytes()
		}
		c.p.Event(obs.LayerKR, obs.EvKRCheckpointBegin,
			obs.KV("label", label), obs.KV("version", iter),
			obs.KV("views", len(ckpt)), obs.KV("bytes", simBytes))
		// A kill here models a failure inside the checkpoint region after
		// the body ran but before the data backend commits the version.
		c.p.Inject("kr.commit")
		// Validate the blob against the codec checksum before handing it to
		// the data backend: a flip that hit the serialized bytes in memory
		// must never be committed as a restorable version.
		if !blobChecksumOK(blob) {
			c.p.Event(obs.LayerKR, obs.EvKRCheckpointRejected,
				obs.KV("label", label), obs.KV("version", iter), obs.KV("stage", "codec"))
			return fmt.Errorf("%w: %s version %d", ErrCorruptBlob, label, iter)
		}
		if err := c.backend.Checkpoint(iter, blob, simBytes); err != nil {
			if errors.Is(err, ErrRejected) {
				// The data layer's verification discarded this version
				// (persistent blob corruption in scratch). The previous good
				// version remains latest; the next matching iteration writes a
				// fresh checkpoint, so the run carries on with a wider
				// recompute window instead of aborting.
				c.p.Event(obs.LayerKR, obs.EvKRCheckpointRejected,
					obs.KV("label", label), obs.KV("version", iter), obs.KV("stage", "backend"))
				return nil
			}
			return err
		}
		c.latest = iter
		// Feed the message log's GC watermark: once every slot has
		// committed a version, entries from earlier epochs are unreachable
		// and can be trimmed. No-op when logging is off.
		c.p.MsgLogCommit(c.comm.Rank(c.p), iter)
		c.p.Event(obs.LayerKR, obs.EvKRCheckpointEnd,
			obs.KV("label", label), obs.KV("version", iter), obs.KV("bytes", simBytes))
	}
	return nil
}

// restore overwrites views from checkpoint version iter, between a
// kr.restore_begin and a kr.restore_end event. A non-empty mode (the
// localized recovery path) tags both events.
func (c *Context) restore(label string, iter int, views []kokkos.View, mode string) error {
	begin := []obs.Attr{obs.KV("label", label), obs.KV("version", iter), obs.KV("views", len(views))}
	end := []obs.Attr{obs.KV("label", label), obs.KV("version", iter)}
	if mode != "" {
		begin = append(begin, obs.KV("mode", mode))
		end = append(end, obs.KV("mode", mode))
	}
	c.p.Event(obs.LayerKR, obs.EvKRRestoreBegin, begin...)
	blob, err := c.backend.Restore(iter)
	if err != nil {
		return err
	}
	if err := deserializeViews(blob, views); err != nil {
		return err
	}
	c.p.Event(obs.LayerKR, obs.EvKRRestoreEnd, end...)
	return nil
}

// Census classifies the capture list of the most recent Checkpoint call
// (the data behind the paper's Figure 7).
func (c *Context) Census() Census { return CensusOf(c.captured, c.aliases) }

// serializeViews encodes views as: u32 crc32 (IEEE, over the rest), u32
// count, then per view u32 label len, label, u32 data len, data. The CRC
// is the KR codec's own integrity check, verified before every commit and
// restore independently of the data backend's blob checksum. The blob is
// sized exactly up front and every view encodes straight into it: one
// allocation per checkpoint, no per-view copy.
func serializeViews(views []kokkos.View) []byte {
	size := 8
	for _, v := range views {
		size += 8 + len(v.Label()) + v.SizeBytes()
	}
	out := make([]byte, 4, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(views)))
	for _, v := range views {
		label := v.Label()
		out = binary.LittleEndian.AppendUint32(out, uint32(len(label)))
		out = append(out, label...)
		out = binary.LittleEndian.AppendUint32(out, uint32(v.SizeBytes()))
		out = v.AppendBytes(out)
	}
	binary.LittleEndian.PutUint32(out[:4], crc32.ChecksumIEEE(out[4:]))
	return out
}

// blobChecksumOK verifies a serialized view blob against its codec CRC.
func blobChecksumOK(blob []byte) bool {
	return len(blob) >= 8 && crc32.ChecksumIEEE(blob[4:]) == binary.LittleEndian.Uint32(blob)
}

// deserializeViews restores blob into views, matching by label.
func deserializeViews(blob []byte, views []kokkos.View) error {
	if len(blob) < 8 {
		return errors.New("kr: truncated checkpoint blob")
	}
	if !blobChecksumOK(blob) {
		return ErrCorruptBlob
	}
	byLabel := make(map[string]kokkos.View, len(views))
	for _, v := range views {
		byLabel[v.Label()] = v
	}
	count := int(binary.LittleEndian.Uint32(blob[4:]))
	off := 8
	seen := 0
	for i := 0; i < count; i++ {
		if off+4 > len(blob) {
			return errors.New("kr: truncated label header")
		}
		n := int(binary.LittleEndian.Uint32(blob[off:]))
		off += 4
		if off+n > len(blob) {
			return errors.New("kr: truncated label")
		}
		label := string(blob[off : off+n])
		off += n
		if off+4 > len(blob) {
			return errors.New("kr: truncated data header")
		}
		dn := int(binary.LittleEndian.Uint32(blob[off:]))
		off += 4
		if off+dn > len(blob) {
			return errors.New("kr: truncated data")
		}
		v, ok := byLabel[label]
		if !ok {
			return fmt.Errorf("kr: checkpoint contains unknown view %q", label)
		}
		if err := v.Deserialize(blob[off : off+dn]); err != nil {
			return err
		}
		off += dn
		seen++
	}
	if seen != len(views) {
		return fmt.Errorf("kr: checkpoint restored %d of %d views", seen, len(views))
	}
	return nil
}
