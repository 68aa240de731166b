package mpi

import (
	"fmt"
	"sync"
)

// MsgLog is the world-level sender-based message log backing localized
// recovery (DESIGN.md §12). While enabled it records, per checkpoint epoch:
//
//   - every point-to-point payload sent on a registered (lineage)
//     communicator, keyed by (sender slot, receiver slot, tag) in send
//     order — the sender-based log of Dichev & Nikolopoulos;
//   - the result slots of every completed collective on the lineage, in
//     completion order (which equals program order, because a collective
//     only completes when all members arrived);
//   - per-slot cursor snapshots taken at each checkpoint-region boundary,
//     recording how far into the log that slot's traffic had progressed
//     when it entered iteration `iter`.
//
// After a failure, the replacement rank restores its own checkpoint and
// re-executes forward: its sends are suppressed (they were already
// delivered and logged), its receives and collectives are served from the
// log, and survivors pause in place, skipping already-executed iterations
// while their collective cursor replays the logged lineage. Replay is
// deterministic because the log stores the exact bytes and virtual arrival
// times of the original exchange.
//
// Garbage collection: when every slot has committed checkpoint version W
// (the watermark), all log entries belonging to iterations before W are
// unreachable — replay can never start earlier than the best common
// version — and are trimmed using the boundary-W cursor snapshots.
//
// "Slot" throughout means the logical rank: the rank within the lineage
// communicator, which Fenix keeps stable across spare substitution and
// re-hosting. Compaction (true shrink) changes slot identity, so the log
// disables itself and localized recovery degrades to global rollback.
type MsgLog struct {
	mu       sync.Mutex
	enabled  bool
	disabled bool // sticky: set on shrink compaction
	nSlots   int  // lineage width (set at first RegisterComm)
	comms    map[int64]bool
	p2p      map[p2pKey]*p2pLog
	coll     collLog
	snaps    map[snapKey]*CursorSnap
	commit   map[int]int // slot -> latest committed checkpoint version
	water    int         // min committed version over all slots, -1 until all committed
	resetGen int         // highest repair generation that triggered a full reset

	entries int   // live p2p entries + collective entries
	bytes   int64 // sim payload bytes held (p2p data + collective slots)
	trimmed int64 // total entries removed by GC
}

// p2pKey identifies one sender->receiver message stream. Ranks are logical
// slots (lineage comm ranks), so the stream survives spare substitution.
type p2pKey struct {
	src, dst, tag int
}

type p2pEntry struct {
	data     []byte
	simBytes int
	arriveAt float64
}

// p2pLog is one stream's entries. base is the absolute sequence number of
// entries[0]; absolute seq = base + position. maxSeen is the highest
// absolute receive cursor any incarnation of the receiver ever reached —
// consumption below it is a replay, at it a first consumption.
type p2pLog struct {
	base    int
	entries []p2pEntry
	maxSeen int
}

type collEntry struct {
	slots    []slot
	nArrived int
	simBytes int
}

type collLog struct {
	base    int
	entries []collEntry
}

type snapKey struct {
	slot, iter int
}

// CursorSnap records one slot's log cursors at a checkpoint-region
// boundary: how many messages it had sent/received per stream and how many
// lineage collectives it had completed when it entered that iteration.
type CursorSnap struct {
	Send map[p2pKey]int
	Recv map[p2pKey]int
	Coll int
}

func (s *CursorSnap) clone() *CursorSnap {
	cp := &CursorSnap{Send: make(map[p2pKey]int, len(s.Send)), Recv: make(map[p2pKey]int, len(s.Recv)), Coll: s.Coll}
	for k, v := range s.Send {
		cp.Send[k] = v
	}
	for k, v := range s.Recv {
		cp.Recv[k] = v
	}
	return cp
}

// NewMsgLog returns an enabled, empty message log.
func NewMsgLog() *MsgLog {
	return &MsgLog{
		enabled: true,
		comms:   make(map[int64]bool),
		p2p:     make(map[p2pKey]*p2pLog),
		snaps:   make(map[snapKey]*CursorSnap),
		commit:  make(map[int]int),
		water:   -1,
	}
}

// active reports whether logging/replay should happen. Caller holds mu.
func (l *MsgLog) activeLocked() bool { return l.enabled && !l.disabled }

// Active reports whether the log is live (enabled and not disabled by a
// shrink compaction).
func (l *MsgLog) Active() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.activeLocked()
}

// RegisterComm marks a communicator id as part of the resilient lineage;
// only traffic on registered comms is logged. width is the communicator
// size (the number of logical slots).
func (l *MsgLog) RegisterComm(id int64, width int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.activeLocked() {
		return
	}
	if l.nSlots == 0 {
		l.nSlots = width
	} else if l.nSlots != width {
		// Width change means slot identity changed (compaction); the log's
		// slot-keyed streams are meaningless now.
		l.disableLocked()
		return
	}
	l.comms[id] = true
}

// registered reports whether comm id is part of the logged lineage.
func (l *MsgLog) registered(id int64) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.activeLocked() && l.comms[id]
}

// Disable permanently turns the log off (shrink compaction changed slot
// identity). Entries are released; localized recovery degrades to global
// rollback from here on.
func (l *MsgLog) Disable() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.disableLocked()
}

func (l *MsgLog) disableLocked() {
	l.disabled = true
	l.p2p = make(map[p2pKey]*p2pLog)
	l.coll = collLog{}
	l.snaps = make(map[snapKey]*CursorSnap)
	l.entries = 0
	l.bytes = 0
}

// ResetOnce clears the whole log if generation `gen` has not already
// triggered a reset. It is called by every rank when a recovery finds no
// committed checkpoint (best common version -1): the run re-executes from
// scratch, so the aborted epoch's log is garbage. Returns true for the
// caller that performed the reset (or if this generation already reset —
// callers must still zero their own cursors either way).
func (l *MsgLog) ResetOnce(gen int) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.activeLocked() || gen <= l.resetGen {
		return false
	}
	l.resetGen = gen
	l.p2p = make(map[p2pKey]*p2pLog)
	l.coll = collLog{}
	l.snaps = make(map[snapKey]*CursorSnap)
	l.commit = make(map[int]int)
	l.water = -1
	l.entries = 0
	l.bytes = 0
	return true
}

// AppendP2P logs one sent message and returns its absolute sequence
// number. The caller must have already delivered the payload (deliver
// before append: a receiver that sees the entry is guaranteed the mailbox
// copy exists too).
func (l *MsgLog) AppendP2P(key p2pKey, data []byte, simBytes int, arriveAt float64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	pl := l.p2p[key]
	if pl == nil {
		pl = &p2pLog{}
		l.p2p[key] = pl
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	pl.entries = append(pl.entries, p2pEntry{data: cp, simBytes: simBytes, arriveAt: arriveAt})
	l.entries++
	l.bytes += int64(simBytes)
	return pl.base + len(pl.entries) - 1
}

// p2pAt returns the entry with absolute sequence seq for key, if logged
// and not yet trimmed.
func (l *MsgLog) p2pAt(key p2pKey, seq int) (p2pEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pl := l.p2p[key]
	if pl == nil || seq >= pl.base+len(pl.entries) {
		return p2pEntry{}, false
	}
	if seq < pl.base {
		panic(fmt.Sprintf("mpi: msglog replay below GC watermark: key %+v seq %d base %d", key, seq, pl.base))
	}
	return pl.entries[seq-pl.base], true
}

// p2pLen returns the absolute length (next sequence number) of key's
// stream.
func (l *MsgLog) p2pLen(key p2pKey) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	pl := l.p2p[key]
	if pl == nil {
		return 0
	}
	return pl.base + len(pl.entries)
}

// noteConsumed records that absolute seq was consumed by the receiver and
// reports whether this was a replay (a previous incarnation had already
// consumed it).
func (l *MsgLog) noteConsumed(key p2pKey, seq int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	pl := l.p2p[key]
	if pl == nil {
		return false
	}
	if seq < pl.maxSeen {
		return true
	}
	pl.maxSeen = seq + 1
	return false
}

// AppendColl logs one completed lineage collective.
func (l *MsgLog) AppendColl(slots []slot, nArrived, simBytes int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.coll.entries = append(l.coll.entries, collEntry{slots: slots, nArrived: nArrived, simBytes: simBytes})
	l.entries++
	l.bytes += int64(simBytes)
	return l.coll.base + len(l.coll.entries) - 1
}

// collAt returns logged collective idx (absolute index).
func (l *MsgLog) collAt(idx int) (collEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if idx >= l.coll.base+len(l.coll.entries) {
		return collEntry{}, false
	}
	if idx < l.coll.base {
		panic(fmt.Sprintf("mpi: msglog collective replay below GC watermark: idx %d base %d", idx, l.coll.base))
	}
	return l.coll.entries[idx-l.coll.base], true
}

// collLen returns the absolute lineage length.
func (l *MsgLog) collLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.coll.base + len(l.coll.entries)
}

// Snapshot records slot's boundary cursors for iteration iter, unless a
// snapshot for that boundary already exists (the first incarnation to
// reach a boundary owns its snapshot).
func (l *MsgLog) Snapshot(slot, iter int, cur *CursorSnap) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.activeLocked() {
		return
	}
	k := snapKey{slot: slot, iter: iter}
	if _, ok := l.snaps[k]; ok {
		return
	}
	l.snaps[k] = cur.clone()
}

// SnapshotAt returns the recorded boundary snapshot for (slot, iter), or
// nil if none was recorded.
func (l *MsgLog) SnapshotAt(slot, iter int) *CursorSnap {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.snaps[snapKey{slot: slot, iter: iter}]
	if !ok {
		return nil
	}
	return s.clone()
}

// frontier returns, for every stream touching `slot`, the stream's
// absolute length — the cursor values of a rank that has sent and consumed
// everything logged for it. Used to fast-forward a replacement over a
// restored iteration whose successor boundary was never reached.
func (l *MsgLog) frontier(slot int) *CursorSnap {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &CursorSnap{Send: make(map[p2pKey]int), Recv: make(map[p2pKey]int), Coll: l.coll.base + len(l.coll.entries)}
	for k, pl := range l.p2p {
		n := pl.base + len(pl.entries)
		if k.src == slot {
			s.Send[k] = n
		}
		if k.dst == slot {
			s.Recv[k] = n
		}
	}
	return s
}

// NoteCommit records that `slot` committed checkpoint version `version`
// and runs GC if the watermark advanced. It returns the new watermark and
// the number of entries trimmed by this call (0 if the watermark did not
// move).
func (l *MsgLog) NoteCommit(slot, version int) (watermark int, trimmed int) {
	if l == nil {
		return -1, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.activeLocked() {
		return l.water, 0
	}
	if v, ok := l.commit[slot]; !ok || version > v {
		l.commit[slot] = version
	}
	if l.nSlots == 0 || len(l.commit) < l.nSlots {
		return l.water, 0
	}
	w := -1
	for s := 0; s < l.nSlots; s++ {
		v, ok := l.commit[s]
		if !ok {
			return l.water, 0
		}
		if w == -1 || v < w {
			w = v
		}
	}
	if w <= l.water {
		return l.water, 0
	}
	l.water = w
	return w, l.trimLocked(w)
}

// trimLocked drops every entry that belongs to an iteration before the
// watermark W, using the boundary-W snapshots: a stream's prefix below the
// sender's boundary-W send cursor was sent before iteration W and can
// never be replayed (replay never starts before the best common version,
// which is >= W). Caller holds mu.
func (l *MsgLog) trimLocked(w int) int {
	trimmed := 0
	for key, pl := range l.p2p {
		snap, ok := l.snaps[snapKey{slot: key.src, iter: w}]
		if !ok {
			continue
		}
		keep := snap.Send[key]
		if keep <= pl.base {
			continue
		}
		n := keep - pl.base
		if n > len(pl.entries) {
			n = len(pl.entries)
		}
		for i := 0; i < n; i++ {
			l.bytes -= int64(pl.entries[i].simBytes)
		}
		pl.entries = append(pl.entries[:0:0], pl.entries[n:]...)
		pl.base += n
		l.entries -= n
		trimmed += n
	}
	// All boundary-W collective cursors are equal across slots (SPMD);
	// use slot 0's.
	if snap, ok := l.snaps[snapKey{slot: 0, iter: w}]; ok && snap.Coll > l.coll.base {
		n := snap.Coll - l.coll.base
		if n > len(l.coll.entries) {
			n = len(l.coll.entries)
		}
		for i := 0; i < n; i++ {
			l.bytes -= int64(l.coll.entries[i].simBytes)
		}
		l.coll.entries = append(l.coll.entries[:0:0], l.coll.entries[n:]...)
		l.coll.base += n
		l.entries -= n
		trimmed += n
	}
	for k := range l.snaps {
		if k.iter < w {
			delete(l.snaps, k)
		}
	}
	l.trimmed += int64(trimmed)
	return trimmed
}

// Stats returns the current entry count, held payload bytes, total trimmed
// entries, and GC watermark.
func (l *MsgLog) Stats() (entries int, bytes int64, trimmed int64, watermark int) {
	if l == nil {
		return 0, 0, 0, -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries, l.bytes, l.trimmed, l.water
}
