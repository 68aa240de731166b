// Package veloc is a simulation of the VeloC asynchronous multi-level
// checkpoint/restart runtime. As in VeloC, applications (or the Kokkos
// Resilience layer acting on their behalf) register protected memory
// regions; Checkpoint synchronously copies them into node-local scratch
// (a memory-mapped folder in the paper's configuration) and then flushes
// them to the parallel file system asynchronously via the per-node server.
// The server is modeled analytically by cluster.Node.FlushAsyncFor: the flush
// occupies a virtual-time window that throttles the shared PFS and congests
// the node's MPI traffic, which is exactly the behaviour the paper's
// Figures 5 and 6 attribute to VeloC.
//
// Two modes mirror Section V of the paper:
//
//   - Collective: the classic VeloC configuration. Restart version
//     selection is a collective over the communicator, automatically
//     finding the best globally-available checkpoint. This mode cannot
//     tolerate the communicator being replaced after a process failure.
//   - Single (non-collective): each rank manages versions locally; the
//     caller performs the globally-best-version reduction manually. This is
//     the mode Fenix integration requires.
package veloc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Mode selects collective or non-collective (single) operation.
type Mode int

const (
	// Collective coordinates version selection across the communicator.
	Collective Mode = iota
	// Single operates per-rank with no internal communication.
	Single
)

func (m Mode) String() string {
	if m == Collective {
		return "collective"
	}
	return "single"
}

// ErrNoCheckpoint is returned when no usable checkpoint version exists.
var ErrNoCheckpoint = errors.New("veloc: no checkpoint available")

// Region is a protected memory region: it can produce its current contents
// and restore itself from checkpointed bytes.
// SimBytes is the region's size in the simulation's cost model — equal to
// len(Bytes()) unless a small real buffer stands in for paper-scale data
// (see kokkos.View.SimBytes).
type Region interface {
	Bytes() []byte
	Restore([]byte) error
	SimBytes() int
}

// SliceRegion adapts a byte slice pointer as a Region.
type SliceRegion struct{ Buf *[]byte }

// Bytes returns a copy of the current slice contents.
func (r SliceRegion) Bytes() []byte {
	cp := make([]byte, len(*r.Buf))
	copy(cp, *r.Buf)
	return cp
}

// Restore overwrites the slice contents.
func (r SliceRegion) Restore(b []byte) error {
	if len(b) != len(*r.Buf) {
		return fmt.Errorf("veloc: region expects %d bytes, got %d", len(*r.Buf), len(b))
	}
	copy(*r.Buf, b)
	return nil
}

// SimBytes returns the real slice length.
func (r SliceRegion) SimBytes() int { return len(*r.Buf) }

// Config configures a Client.
type Config struct {
	// Mode selects collective or single operation.
	Mode Mode
	// Comm is the communicator used for collective version selection;
	// required in Collective mode. In Single mode it is optional and only
	// sets the PFS congestion share of this client's flushes (its size;
	// see scheduleFlush).
	Comm *mpi.Comm
	// Rank is the logical rank identity used in checkpoint file names. It
	// defaults to the comm rank (Collective) or world rank (Single). After
	// a Fenix repair, a replacement process adopts its predecessor's
	// logical rank so it finds the predecessor's checkpoints.
	Rank int
	// RankSet reports whether Rank was explicitly provided (a zero Rank is
	// valid).
	RankSet bool
	// Verify enables read-back integrity verification of every checkpoint
	// before its version is committed: after the scratch write the blob is
	// read back and checked against its CRC; on mismatch the checkpoint is
	// re-serialized and re-written once, and if corruption persists the
	// version is discarded (ErrRejected) so it can never overwrite the
	// last good version. This is the data layer's half of the SDC
	// detection ladder (checksum / replay / vote).
	Verify bool
}

// Client is one process's VeloC handle.
type Client struct {
	p       *mpi.Proc
	mode    Mode
	comm    *mpi.Comm
	rank    int
	regions map[int]Region
	ids     []int
	verify  bool
	// lastCkptAt is the virtual time of the previous Checkpoint call
	// (negative before the first one); the flush scheduler derives its
	// deadline from the observed checkpoint cadence.
	lastCkptAt float64
}

// initCost is the virtual cost of VeloC client initialization (connecting
// to the active backend server on the node), in seconds.
const initCost = 5e-3

// New creates a VeloC client for process p. It charges the resilience
// initialization cost to p's clock.
func New(p *mpi.Proc, cfg Config) (*Client, error) {
	c := &Client{p: p, mode: cfg.Mode, comm: cfg.Comm, regions: make(map[int]Region), lastCkptAt: -1, verify: cfg.Verify}
	switch cfg.Mode {
	case Collective:
		if cfg.Comm == nil {
			return nil, errors.New("veloc: collective mode requires a communicator")
		}
		c.rank = cfg.Comm.Rank(p)
	case Single:
		c.rank = p.Rank()
	default:
		return nil, fmt.Errorf("veloc: unknown mode %d", int(cfg.Mode))
	}
	if cfg.RankSet {
		c.rank = cfg.Rank
	}
	if c.rank < 0 {
		return nil, errors.New("veloc: calling process not in communicator")
	}
	p.ChargeTime(trace.ResilienceInit, initCost)
	p.Event(obs.LayerVeloC, obs.EvVeloCInit,
		obs.KV("mode", c.mode.String()), obs.KV("logical_rank", c.rank))
	return c, nil
}

// Rank returns the logical rank used in checkpoint naming.
func (c *Client) Rank() int { return c.rank }

// SetRank updates the logical rank, used when continuing with a shrunk
// communicator after running out of spares.
func (c *Client) SetRank(r int) { c.rank = r }

// SetComm replaces the communicator used for collective operations after a
// Fenix repair.
func (c *Client) SetComm(comm *mpi.Comm) { c.comm = comm }

// Protect registers region r under the given id (VELOC_Mem_protect).
// Re-registering an id replaces the region.
func (c *Client) Protect(id int, r Region) {
	if _, ok := c.regions[id]; !ok {
		c.ids = append(c.ids, id)
		sort.Ints(c.ids)
	}
	c.regions[id] = r
}

func dataKey(name string, version, rank int) string {
	return fmt.Sprintf("veloc/%s/v%d/rank%d", name, version, rank)
}

func metaKey(name string, rank int) string {
	return fmt.Sprintf("veloc/%s/meta/rank%d", name, rank)
}

func encodeVersion(v int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func decodeVersion(b []byte) (int, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return int(binary.LittleEndian.Uint64(b)), true
}

// ErrCorrupt indicates a checkpoint whose integrity checksum does not
// match its contents.
var ErrCorrupt = errors.New("veloc: checkpoint integrity check failed")

// ErrRejected indicates a checkpoint version that was discarded before
// commit because its blob kept failing read-back verification. The last
// good version is untouched; callers should carry on without advancing
// their latest-version cursor.
var ErrRejected = errors.New("veloc: checkpoint rejected by integrity verification")

// blobIntact reports whether a serialized checkpoint blob passes its CRC
// header; used to skip silently-corrupted copies during version
// selection so restart falls back to the previous good version.
func blobIntact(b []byte) bool {
	return len(b) >= 8 && crc32.ChecksumIEEE(b[4:]) == binary.LittleEndian.Uint32(b)
}

// blob layout: u32 crc32 (IEEE, over the rest), u32 count, then per
// region: u32 id, u32 len, bytes. The CRC mirrors VeloC's checkpoint
// integrity verification. The second return is the cost-model size of the
// checkpoint.
func (c *Client) serialize() ([]byte, int) {
	size := 8
	simSize := 8
	contents := make([][]byte, len(c.ids))
	for i, id := range c.ids {
		contents[i] = c.regions[id].Bytes()
		size += 8 + len(contents[i])
		simSize += 8 + c.regions[id].SimBytes()
	}
	out := make([]byte, 4, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(c.ids)))
	for i, id := range c.ids {
		out = binary.LittleEndian.AppendUint32(out, uint32(id))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(contents[i])))
		out = append(out, contents[i]...)
	}
	binary.LittleEndian.PutUint32(out[:4], crc32.ChecksumIEEE(out[4:]))
	return out, simSize
}

func (c *Client) deserialize(blob []byte) error {
	if len(blob) < 8 {
		return errors.New("veloc: truncated checkpoint blob")
	}
	if crc32.ChecksumIEEE(blob[4:]) != binary.LittleEndian.Uint32(blob) {
		return ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint32(blob[4:]))
	off := 8
	for i := 0; i < count; i++ {
		if off+8 > len(blob) {
			return errors.New("veloc: truncated checkpoint region header")
		}
		id := int(binary.LittleEndian.Uint32(blob[off:]))
		n := int(binary.LittleEndian.Uint32(blob[off+4:]))
		off += 8
		if off+n > len(blob) {
			return errors.New("veloc: truncated checkpoint region data")
		}
		r, ok := c.regions[id]
		if !ok {
			return fmt.Errorf("veloc: checkpoint contains unregistered region %d", id)
		}
		if err := r.Restore(blob[off : off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// flipBlob asks the chaos injector whether a bit flip is scheduled for
// this visit of veloc.scratch_blob and, if so, applies it to the
// serialized blob in place (frac selects the byte proportionally, bit the
// bit within it) and emits the injection event. Returns whether a flip
// was applied.
func (c *Client) flipBlob(name string, version int, blob []byte) bool {
	frac, bit, ok := c.p.FlipAt("veloc.scratch_blob")
	if !ok || len(blob) == 0 {
		return false
	}
	idx := int(frac * float64(len(blob)))
	if idx >= len(blob) {
		idx = len(blob) - 1
	}
	blob[idx] ^= 1 << (uint(bit) % 8)
	c.p.Event(obs.LayerChaos, obs.EvSDCInjected,
		obs.KV("point", "veloc.scratch_blob"), obs.KV("name", name),
		obs.KV("version", version), obs.KV("byte", idx), obs.KV("bit", bit%8))
	c.p.Obs().Registry().Counter(obs.MSDCInjected).Inc()
	return true
}

// sdcEvent emits an SDC lifecycle event for a checkpoint blob under the
// chaos taxonomy (the VeloC blob verifier is the resolving layer here).
func (c *Client) sdcEvent(ev, name string, version int) {
	c.p.Event(obs.LayerChaos, ev,
		obs.KV("point", "veloc.scratch_blob"), obs.KV("name", name),
		obs.KV("version", version))
}

// Checkpoint writes version `version` of checkpoint `name`
// (VELOC_Checkpoint). The synchronous part — serializing the protected
// regions into node-local scratch — is charged to the CheckpointFunc
// category; the flush to the PFS proceeds asynchronously on the node's
// server and only manifests as later congestion and file availability.
func (c *Client) Checkpoint(name string, version int) error {
	if len(c.regions) == 0 {
		return errors.New("veloc: checkpoint with no protected regions")
	}
	c.p.Inject("veloc.checkpoint")
	node := c.p.Node()
	key := dataKey(name, version, c.rank)

	// Serialize and persist to scratch, giving the chaos corruptor its
	// shot at the stored bytes (point veloc.scratch_blob). With Verify on,
	// the blob is read back and CRC-checked before the version commits:
	// corruption is detected here, repaired by one clean re-write, and a
	// persistently corrupt version is discarded outright — the previous
	// good version is never overwritten by a rejected blob.
	var cost float64
	var simSize int
	detected := 0
	for attempt := 0; ; attempt++ {
		blob, ss := c.serialize()
		simSize = ss
		flipped := c.flipBlob(name, version, blob)
		cost += node.ScratchWriteSized(key, blob, simSize)
		if !c.verify {
			if flipped {
				// No verification layer will ever look at this blob on the
				// write path: the corruption escapes into storage. (Version
				// selection still CRC-skips it if a restart comes looking.)
				c.sdcEvent(obs.EvSDCEscaped, name, version)
				c.p.Obs().Registry().Counter(obs.MSDCEscaped).Inc()
			}
			break
		}
		back, rcost, ok := node.ScratchRead(key)
		cost += rcost
		if ok && blobIntact(back) {
			if detected > 0 {
				c.sdcEvent(obs.EvSDCCorrected, name, version)
				c.p.Obs().Registry().Counter(obs.MSDCCorrected).Add(float64(detected))
			}
			break
		}
		detected++
		c.sdcEvent(obs.EvSDCDetected, name, version)
		c.p.Obs().Registry().Counter(obs.MSDCDetected).Inc()
		if attempt >= 1 {
			node.ScratchDelete(key)
			c.p.ChargeTime(trace.CheckpointFunc, cost)
			return fmt.Errorf("%w: %s version %d (rank %d)", ErrRejected, name, version, c.rank)
		}
	}
	node.ScratchWrite(metaKey(name, c.rank), encodeVersion(version))
	c.p.ChargeTime(trace.CheckpointFunc, cost)
	c.p.Event(obs.LayerVeloC, obs.EvVeloCCheckpoint,
		obs.KV("name", name), obs.KV("version", version),
		obs.KV("bytes", simSize), obs.KV("scratch_seconds", cost))

	now := c.p.Now()
	c.p.Event(obs.LayerVeloC, obs.EvVeloCFlushBegin,
		obs.KV("name", name), obs.KV("version", version), obs.KV("bytes", simSize))
	if rec := c.p.Obs(); rec.Enabled() {
		reg := rec.Registry()
		layer := obs.L("layer", "veloc")
		reg.Counter(obs.MCheckpoints, layer).Inc()
		reg.Counter(obs.MCheckpointBytes, layer).Add(float64(simSize))
		reg.Histogram(obs.MCheckpointSyncSeconds, obs.TimeBuckets, layer).Observe(cost)
		reg.Counter(obs.MFlushes).Inc()
	}
	// The flush is owner-tagged with this process's world rank: if the
	// process's node crashes before the flush window closes
	// (mpi.Proc.CrashNode), the PFS copy never becomes readable and restart
	// falls back to an older complete version.
	if node.FlushPolicy().Enabled() {
		if err := c.scheduleFlush(name, version, simSize, now); err != nil {
			return err
		}
	} else {
		end, err := node.FlushAsyncFor(dataKey(name, version, c.rank), dataKey(name, version, c.rank), now, c.p.Rank())
		if err != nil {
			return err
		}
		if rec := c.p.Obs(); rec.Enabled() {
			// The flush completes asynchronously on the node's server; the end
			// event is stamped with its virtual completion time, ahead of the
			// emitting rank's clock. queue_depth is sampled at completion so
			// the analyzer sees the queue drain, not just its growth.
			rec.Emit(end, c.p.Rank(), obs.LayerVeloC, obs.EvVeloCFlushEnd,
				obs.KV("name", name), obs.KV("version", version),
				obs.KV("bytes", simSize), obs.KV("seconds", end-now),
				obs.KV("queue_depth", node.InFlightAt(end)))
			reg := rec.Registry()
			reg.Histogram(obs.MFlushSeconds, obs.TimeBuckets).Observe(end - now)
			reg.Gauge(obs.MFlushQueueDepth).Set(float64(node.InFlightAt(now)))
		}
	}
	c.lastCkptAt = now
	// Publish the PFS meta entry; its availability follows the data flush.
	c.p.World().Cluster().PFS().Write(metaKey(name, c.rank), encodeVersion(version), c.p.Now())
	// The flush window is still open here: a kill at this point models a
	// failure mid-flush. Combined with a node crash (mpi.Proc.CrashNode),
	// the meta entry is left advertising a version whose PFS data never
	// completes, which restore must skip.
	c.p.Inject("veloc.flush")
	return nil
}

// localLatest returns the newest restorable version visible to this rank
// without communication: the scratch copy if present, else the PFS meta
// entry. The meta entry is advertised before the asynchronous data flush
// completes, so a version whose flush was interrupted by the writer's
// failure may be advertised yet unreadable; localLatest scans downward to
// the newest *complete* version (older versions persist — the core stack
// never garbage-collects them).
func (c *Client) localLatest(name string) (int, bool) {
	c.syncFlushes()
	v, ok := -1, false
	if b, _, sok := c.p.Node().ScratchRead(metaKey(name, c.rank)); sok {
		if dv, dok := decodeVersion(b); dok {
			v, ok = dv, true
		}
	}
	if !ok {
		if b, _, pok := c.p.World().Cluster().PFS().Read(metaKey(name, c.rank), c.p.Now()); pok {
			if dv, dok := decodeVersion(b); dok {
				v, ok = dv, true
			}
		}
	}
	if !ok {
		return 0, false
	}
	for v >= 0 && !c.Available(name, v) {
		v--
	}
	if v < 0 {
		return 0, false
	}
	return v, true
}

// LatestVersion returns the newest restorable version of `name`. In
// Collective mode this is the best checkpoint available at every rank of
// the client's communicator (BestCommonVersion, as VeloC's collective
// restart performs internally); in Single mode it is the local view only,
// and the caller is responsible for the global reduction.
func (c *Client) LatestVersion(name string) (int, error) {
	if c.mode == Collective {
		return c.BestCommonVersion(name, c.comm)
	}
	local, ok := c.localLatest(name)
	if !ok {
		return 0, ErrNoCheckpoint
	}
	return local, nil
}

// BestCommonVersion is the globally-best-version reduction over comm, in
// either mode: the newest version restorable at every rank of comm. It is
// the step VeloC's collective restart performs internally, and the one
// the paper's Fenix integration adds by hand over the repaired
// communicator for a Single-mode client (Section V).
func (c *Client) BestCommonVersion(name string, comm *mpi.Comm) (int, error) {
	v := -1
	if local, ok := c.localLatest(name); ok {
		v = local
	}
	// Recovery-infrastructure collective: it runs once per (re-)entry,
	// including generation 0, but never during a localized replacement's
	// forward re-execution, so it must stay out of the message log's
	// lineage cursor space.
	c.p.LogExemptBegin()
	global, err := comm.AllreduceInt(c.p, v, mpi.OpMin)
	c.p.LogExemptEnd()
	if err != nil {
		return 0, err
	}
	if global < 0 {
		return 0, ErrNoCheckpoint
	}
	return global, nil
}

// Restart restores the protected regions from version `version` of `name`
// (VELOC_Restart). Ranks with a scratch copy restore node-locally; others
// (typically a replacement process on a spare node) read from the PFS,
// waiting out any still-running flush. Time is charged to DataRecovery.
func (c *Client) Restart(name string, version int) error {
	c.syncFlushes()
	key := dataKey(name, version, c.rank)
	// noteRestart records the restore with the cost-model size stored
	// alongside the checkpoint, matching the units of
	// checkpoint_bytes_total (the region's own SimBytes is unreliable on a
	// recovered process that has never checkpointed).
	noteRestart := func(source string, seconds float64, simBytes int) {
		c.p.Event(obs.LayerVeloC, obs.EvVeloCRestart,
			obs.KV("name", name), obs.KV("version", version),
			obs.KV("source", source), obs.KV("seconds", seconds), obs.KV("bytes", simBytes))
		if reg := c.p.Obs().Registry(); reg != nil {
			layer := obs.L("layer", "veloc")
			reg.Counter(obs.MRestores, layer).Inc()
			reg.Counter(obs.MRestoreBytes, layer).Add(float64(simBytes))
			reg.Histogram(obs.MRestoreSeconds, obs.TimeBuckets, layer).Observe(seconds)
		}
	}
	if blob, cost, ok := c.p.Node().ScratchRead(key); ok {
		c.p.ChargeTime(trace.DataRecovery, cost)
		err := c.deserialize(blob)
		if err == nil {
			sim, _ := c.p.Node().ScratchSimBytesOf(key)
			noteRestart("scratch", cost, sim)
			return nil
		}
		if !errors.Is(err, ErrCorrupt) {
			return err
		}
		// The scratch copy is silently corrupted: fall through to the PFS
		// copy of the same version, which the flush captured independently.
	}
	pfs := c.p.World().Cluster().PFS()
	blob, ready, ok := pfs.Read(key, c.p.Now())
	if !ok {
		return fmt.Errorf("%w: %s version %d (rank %d)", ErrNoCheckpoint, name, version, c.rank)
	}
	if now := c.p.Now(); ready > now {
		// The checkpoint's flush is still draining: the stall until it
		// becomes readable is MPI-visible flush wait, same budget as the
		// congestion inflation charged on communication.
		if reg := c.p.Obs().Registry(); reg != nil {
			reg.Counter(obs.MFlushWaitSeconds).Add(ready - now)
		}
	}
	waited := c.p.Clock().AdvanceTo(ready)
	c.p.Recorder().Add(trace.DataRecovery, waited)
	if err := c.deserialize(blob); err != nil {
		return err
	}
	sim, _ := pfs.SimBytesOf(key)
	noteRestart("pfs", waited, sim)
	return nil
}

// Available reports whether version `version` of `name` is restorable by
// this rank from scratch or the PFS. A scratch copy failing its CRC is
// treated as absent, so version selection silently falls back past
// corrupted copies to the previous good version.
func (c *Client) Available(name string, version int) bool {
	c.syncFlushes()
	key := dataKey(name, version, c.rank)
	if blob, _, ok := c.p.Node().ScratchRead(key); ok && blobIntact(blob) {
		return true
	}
	_, ok := c.p.World().Cluster().PFS().Exists(key)
	return ok
}
