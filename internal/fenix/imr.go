package fenix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file implements Fenix's In-Memory Redundancy (IMR) data resiliency
// policy with the buddy-rank pairing the paper uses (Section V-A): logical
// ranks form pairs (0,1), (2,3), ... and store each other's checkpoint
// data in memory. A local copy is also kept, trading memory for quick
// node-local recovery on surviving ranks. Recovery of a failed rank's data
// requires one network transfer from its buddy; losing both members of a
// pair between checkpoints loses the data (ErrIMRDataLost).
//
// The store keeps what it is handed, without copying: the blob a rank
// checkpoints is its own stored copy and the message its buddy receives,
// and the buddy's received payload is the buddy copy. Every stored blob is
// read-only, and so is the blob Restore returns.

// ErrIMRDataLost is returned when both members of a buddy pair failed and
// the checkpoint data is unrecoverable.
var ErrIMRDataLost = errors.New("fenix: IMR buddy data lost")

// ErrIMRNoCheckpoint is returned when no common IMR version exists.
var ErrIMRNoCheckpoint = errors.New("fenix: no IMR checkpoint available")

// imrSlot is the per-logical-rank IMR storage: recent versions of the
// rank's own data plus copies of its buddy's data. It lives in the
// runtime, surviving rank replacement: a spare adopting logical rank r can
// still use the surviving buddy's copy.
// imrBlob is one stored checkpoint: real contents plus the cost-model size.
type imrBlob struct {
	data     []byte
	simBytes int
}

type imrSlot struct {
	own   map[int]imrBlob // version -> this slot's data
	buddy map[int]imrBlob // version -> buddy slot's data
}

func newIMRSlot() *imrSlot {
	return &imrSlot{own: make(map[int]imrBlob), buddy: make(map[int]imrBlob)}
}

func gcVersions(m map[int]imrBlob, keep int) {
	if len(m) <= keep {
		return
	}
	vs := make([]int, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs[:len(vs)-keep] {
		delete(m, v)
	}
}

// IMR is one rank's handle on the in-memory redundancy store.
type IMR struct {
	ctx  *Context
	name string
}

// NewIMR creates an IMR handle for ctx. The resilient communicator must
// have even size so every rank has a buddy.
func NewIMR(ctx *Context, name string) (*IMR, error) {
	if ctx.Size()%2 != 0 {
		return nil, fmt.Errorf("fenix: IMR buddy policy requires an even communicator size, got %d", ctx.Size())
	}
	return &IMR{ctx: ctx, name: name}, nil
}

// BuddyOf returns the buddy of logical rank r under the pair policy.
func BuddyOf(r int) int { return r ^ 1 }

// slotStore returns (creating if needed) the storage for logical rank r.
func (im *IMR) slotStore(r int) *imrSlot {
	rt := im.ctx.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s, ok := rt.imr[r]
	if !ok {
		s = newIMRSlot()
		rt.imr[r] = s
	}
	return s
}

const imrTag = 0x1397

// Checkpoint stores blob as version v: a local in-memory copy plus a
// synchronous exchange with the buddy rank. The entire cost — memory copy
// and network transfer — is charged to the CheckpointFunc category, which
// is why the paper observes IMR checkpoint-function cost scaling directly
// with data size. The caller relinquishes blob: it must not write it
// afterwards.
func (im *IMR) Checkpoint(v int, blob []byte) error {
	return im.CheckpointSized(v, blob, len(blob))
}

// CheckpointSized is Checkpoint with the cost model charged for simBytes
// instead of the real buffer length.
func (im *IMR) CheckpointSized(v int, blob []byte, simBytes int) error {
	ctx := im.ctx
	p := ctx.p
	me := ctx.Rank()
	buddy := BuddyOf(me)

	// Local copy: charged as a memcpy, stored as the blob itself.
	copyCost := p.Machine().MemcpyTime(simBytes)
	p.ChargeTime(trace.CheckpointFunc, copyCost)

	// Buddy exchange; the comm charges AppMPI, which we reattribute.
	before := p.Recorder().Get(trace.AppMPI)
	start := p.Now()
	theirs, err := ctx.Comm().SendrecvSized(p, buddy, imrTag, blob, simBytes, buddy, imrTag)
	if err != nil {
		return err
	}
	p.Recorder().Move(trace.AppMPI, trace.CheckpointFunc, p.Recorder().Get(trace.AppMPI)-before)
	p.Event(obs.LayerFenix, obs.EvFenixIMRExchange,
		obs.KV("version", v), obs.KV("buddy", buddy), obs.KV("bytes", simBytes))
	if reg := p.Obs().Registry(); reg != nil {
		layer := obs.L("layer", "imr")
		reg.Counter(obs.MCheckpoints, layer).Inc()
		reg.Counter(obs.MCheckpointBytes, layer).Add(float64(simBytes))
		reg.Histogram(obs.MCheckpointSyncSeconds, obs.TimeBuckets, layer).Observe(copyCost + (p.Now() - start))
	}

	mine := im.slotStore(me)
	rt := ctx.rt
	rt.mu.Lock()
	mine.own[v] = imrBlob{data: blob, simBytes: simBytes}
	mine.buddy[v] = imrBlob{data: theirs, simBytes: simBytes}
	gcVersions(mine.own, rt.imrKeep)
	gcVersions(mine.buddy, rt.imrKeep)
	rt.mu.Unlock()
	return nil
}

// LatestCommon returns the newest version restorable at every rank: each
// rank offers the newest version of its own data it can reach (local for
// survivors, the buddy's copy for recovered ranks), reduced by a global
// minimum.
func (im *IMR) LatestCommon() (int, error) {
	ctx := im.ctx
	me := ctx.Rank()
	local := -1

	rt := ctx.rt
	rt.mu.Lock()
	if s, ok := rt.imr[me]; ok {
		for v := range s.own {
			if v > local {
				local = v
			}
		}
	}
	if ctx.Role() == RoleRecovered {
		// A replacement's own store is empty locally; its data lives in
		// the buddy's store.
		if bs, ok := rt.imr[BuddyOf(me)]; ok {
			for v := range bs.buddy {
				if v > local {
					local = v
				}
			}
		}
	}
	rt.mu.Unlock()

	global, err := ctx.Comm().AllreduceInt(ctx.p, local, mpi.OpMin)
	if err != nil {
		return 0, err
	}
	if global < 0 {
		return 0, ErrIMRNoCheckpoint
	}
	return global, nil
}

// Restore retrieves version v of this rank's data. Survivors restore from
// their local copy (a memory copy); recovered ranks receive their data
// from the buddy over the network. All ranks of the communicator must call
// Restore collectively (the buddy protocol requires the partner's
// participation). Costs are charged to DataRecovery.
func (im *IMR) Restore(v int) ([]byte, error) {
	ctx := im.ctx
	p := ctx.p
	me := ctx.Rank()
	buddy := BuddyOf(me)
	rt := ctx.rt

	rt.mu.Lock()
	var local []byte
	localSim := 0
	if s, ok := rt.imr[me]; ok {
		if b, ok := s.own[v]; ok {
			local = b.data
			localSim = b.simBytes
		}
	}
	rt.mu.Unlock()

	// Determine which side of the pair needs network recovery. Both
	// members must agree; exchange "do I hold my data locally" flags,
	// along with the cost-model size of the copy we hold for the buddy
	// (so a receiver can record its restored blob's simulated size).
	rt.mu.Lock()
	heldForBuddySim := 0
	if s, ok := rt.imr[me]; ok {
		if b, ok := s.buddy[v]; ok {
			heldForBuddySim = b.simBytes
		}
	}
	rt.mu.Unlock()
	flagMsg := make([]byte, 9)
	if local != nil {
		flagMsg[0] = 1
	}
	binary.LittleEndian.PutUint64(flagMsg[1:], uint64(heldForBuddySim))
	flags, err := ctx.Comm().Sendrecv(p, buddy, imrTag+1, flagMsg, buddy, imrTag+1)
	if err != nil {
		return nil, err
	}
	buddyHas := flags[0] == 1
	mySimAtBuddy := int(binary.LittleEndian.Uint64(flags[1:]))

	before := p.Recorder().Get(trace.AppMPI)
	restoreStart := p.Now()
	noteRestore := func(simBytes int, source string) {
		p.Event(obs.LayerFenix, obs.EvFenixIMRRestore, obs.KV("version", v),
			obs.KV("bytes", simBytes), obs.KV("source", source))
		if reg := p.Obs().Registry(); reg != nil {
			layer := obs.L("layer", "imr")
			reg.Counter(obs.MRestores, layer).Inc()
			reg.Counter(obs.MRestoreBytes, layer).Add(float64(simBytes))
			reg.Histogram(obs.MRestoreSeconds, obs.TimeBuckets, layer).Observe(p.Now() - restoreStart)
		}
	}
	defer func() {
		p.Recorder().Move(trace.AppMPI, trace.DataRecovery, p.Recorder().Get(trace.AppMPI)-before)
	}()

	if local != nil {
		cost := p.Machine().MemcpyTime(localSim)
		p.ChargeTime(trace.DataRecovery, cost)
		if !buddyHas {
			// Serve the buddy its data from our buddy-copy store.
			rt.mu.Lock()
			var theirs []byte
			theirsSim := 0
			if s, ok := rt.imr[me]; ok {
				if b, ok := s.buddy[v]; ok {
					theirs = b.data
					theirsSim = b.simBytes
				}
			}
			rt.mu.Unlock()
			if theirs == nil {
				return nil, fmt.Errorf("%w: version %d for rank %d", ErrIMRDataLost, v, buddy)
			}
			if err := ctx.Comm().SendSized(p, buddy, imrTag+2, theirs, theirsSim); err != nil {
				return nil, err
			}
		}
		noteRestore(localSim, "local")
		return local, nil
	}

	if !buddyHas {
		return nil, fmt.Errorf("%w: version %d for rank %d (both pair members lost)", ErrIMRDataLost, v, me)
	}
	blob, err := ctx.Comm().Recv(p, buddy, imrTag+2)
	if err != nil {
		return nil, err
	}
	// Repopulate the local store so subsequent failures of the buddy can
	// be served.
	rt.mu.Lock()
	s, ok := rt.imr[me]
	if !ok {
		s = newIMRSlot()
		rt.imr[me] = s
	}
	s.own[v] = imrBlob{data: blob, simBytes: mySimAtBuddy}
	gcVersions(s.own, rt.imrKeep)
	rt.mu.Unlock()
	noteRestore(mySimAtBuddy, "buddy")
	return blob, nil
}
