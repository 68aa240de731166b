package mpi

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
//
// Locking: no lock is shared by every rank on the traffic path. The
// disabled flag, the entry/byte counters and the collective lineage's
// length are atomics, and whether a communicator is logged is marked on
// the Comm. Each p2p stream has its own lock, which a send or a receive
// on it takes alone once the rank has resolved the stream into its
// cursor. mu guards the stream map, the collective lineage, the boundary
// snapshots and the watermark; where both are held (GC, reset, disable,
// frontier) the stream lock nests inside mu, and mu nests inside world.mu
// when a completed collective is logged or a rank dies.
type MsgLog struct {
	// disabled is sticky: set on shrink compaction. Every gate (Active,
	// Proc.msglogOn, the collective log check) reads it without a lock.
	disabled atomic.Bool
	// entries (live p2p + collective entries) and bytes (sim payload
	// bytes held) are counted by the appends and drops themselves, so a
	// send touches no lock but its stream's.
	entries atomic.Int64
	bytes   atomic.Int64
	// collEnd is the collective lineage's absolute length, published after
	// each append, so a live collective's miss needs no lock (collAt).
	collEnd atomic.Int64

	// mu guards the fields below. A stream's own lock nests inside it
	// (log -> stream), never the other way round.
	mu     sync.Mutex
	nSlots int // lineage width (set at first registration)
	p2p    map[p2pKey]*p2pStream
	coll   collLog
	snaps  map[snapKey]cursorSnap
	commit []int // slot -> latest committed checkpoint version, -1 for none
	above  int   // slots whose committed version is above water
	// commitAt holds the virtual time at which each slot first committed
	// each version at or above the watermark.
	commitAt map[snapKey]float64
	water    int   // min committed version over all slots, -1 until all committed
	resetGen int   // highest repair generation that triggered a full reset
	trimmed  int64 // total entries removed by GC
	// lineage is the last registered lineage communicator. A member's
	// death holds GC (held) until a logged collective completes on a
	// communicator newer than heldComm, the newest one at the death.
	lineage  *Comm
	held     bool
	heldComm int64
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

// p2pStream is one stream's entries, under the stream's own lock: a send
// or a receive on it takes that lock and no lock other ranks share. base
// is the absolute sequence number of entries[0]; absolute seq = base +
// position. maxSeen is the highest absolute receive cursor any incarnation
// of the receiver ever reached — consumption below it is a replay, at it a
// first consumption. A stream, once created, stays in the log's map for
// the log's lifetime (a reset empties it in place), so the pointer a
// rank's cursor caches never goes stale.
type p2pStream struct {
	mu      sync.Mutex
	key     p2pKey
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

// cursor is a rank's position in one logged stream: n is the absolute
// sequence number of the next message it sends or consumes there.
type cursor struct {
	key p2pKey
	n   int
	s   *p2pStream
}

// cursorSnap records one slot's log cursors at a checkpoint-region
// boundary: how many messages it had sent/received per stream and how
// many lineage collectives it had completed when it entered that
// iteration. cur holds the send cursors, then the receive cursors. The
// log owns a recorded snapshot and never writes it; readers copy it.
type cursorSnap struct {
	cur   []cursor
	nSend int
	coll  int
}

func (s cursorSnap) send() []cursor { return s.cur[:s.nSend] }
func (s cursorSnap) recv() []cursor { return s.cur[s.nSend:] }

// NewMsgLog returns an enabled, empty message log.
func NewMsgLog() *MsgLog {
	return &MsgLog{
		p2p:      make(map[p2pKey]*p2pStream),
		snaps:    make(map[snapKey]cursorSnap),
		commitAt: make(map[snapKey]float64),
		water:    -1,
	}
}

// Active reports whether the log is live (not disabled by a shrink
// compaction). It takes no lock.
func (l *MsgLog) Active() bool { return l != nil && !l.disabled.Load() }

// register admits lineage communicator c and reports whether its traffic
// is to be logged. Its size is the number of logical slots; a width change
// means slot identity changed (compaction): the log's slot-keyed streams
// are meaningless now, so it disables itself.
func (l *MsgLog) register(c *Comm) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.Active() {
		return false
	}
	l.lineage = c
	if width := len(c.group); l.nSlots == 0 {
		l.nSlots = width
		l.commit = make([]int, width)
		for s := range l.commit {
			l.commit[s] = -1
		}
	} else if l.nSlots != width {
		l.disableLocked()
		return false
	}
	return true
}

// hold stops GC when world rank r, a lineage member, dies; nComm is the
// newest communicator's id at the death. Until the hold is released, a
// survivor may still rewind its collective cursor to a boundary snapshot
// and replay the lineage from there, while the replacement and the other
// survivors run ahead and commit: a trim in between would delete what it
// is about to read. Caller holds world.mu.
func (l *MsgLog) hold(r int, nComm int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lineage == nil {
		return
	}
	if _, member := l.lineage.index[r]; member {
		l.held, l.heldComm = true, nComm
	}
}

// release ends a hold when a logged collective completes on communicator
// comm, if comm was created after the last death: every member then
// arrived live, at the lineage's end, so every rewind and replay of the
// lineage is over. It runs the watermark advance the hold deferred and
// returns its result; ok is false when there was none. Caller holds
// world.mu.
func (l *MsgLog) release(comm int64) (watermark, trimmed int, reached float64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.held || comm <= l.heldComm {
		return 0, 0, 0, false
	}
	l.held = false
	if l.above < l.nSlots {
		return 0, 0, 0, false
	}
	watermark, trimmed, reached = l.advanceLocked()
	return watermark, trimmed, reached, true
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
	l.disabled.Store(true)
	l.clearLocked()
}

// clearLocked drops every entry and boundary snapshot. Streams are
// emptied in place, so cursors keep their stream pointers. Caller holds
// mu.
func (l *MsgLog) clearLocked() {
	for _, s := range l.p2p {
		s.mu.Lock()
		l.dropP2P(s, len(s.entries))
		s.base, s.maxSeen = 0, 0
		s.mu.Unlock()
	}
	l.dropColl(len(l.coll.entries))
	l.coll.base = 0
	l.collEnd.Store(0)
	clear(l.snaps)
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
	if !l.Active() || gen <= l.resetGen {
		return false
	}
	l.resetGen = gen
	l.clearLocked()
	for s := range l.commit {
		l.commit[s] = -1
	}
	l.above = 0
	clear(l.commitAt)
	l.water = -1
	return true
}

// stream returns key's stream, creating it on first use. A rank resolves
// each stream it touches once and caches the pointer in its cursor.
func (l *MsgLog) stream(key p2pKey) *p2pStream {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.p2p[key]
	if s == nil {
		s = &p2pStream{key: key}
		l.p2p[key] = s
	}
	return s
}

// send is one send on stream s from a sender whose cursor is at seq. When
// seq is below the stream's length, a previous incarnation of this
// program point already delivered and logged the message: send reports
// true and does nothing else. Otherwise it calls deliver and then appends
// e — deliver before append, so a receiver that sees the entry is
// guaranteed the mailbox entry exists too. deliver runs outside the
// stream's lock: the mailbox lock must never nest inside a stream's (a
// receiver holds its mailbox lock while it takes world.mu, and world.mu
// nests the log lock, which nests the streams'). Only the sender appends
// to its stream. The entry keeps e.data itself, the slice the mailbox delivered (the sender
// relinquished it at send), and a replay serves it as is.
func (l *MsgLog) send(s *p2pStream, seq int, e p2pEntry, deliver func()) (replay bool) {
	s.mu.Lock()
	replay = seq < s.base+len(s.entries)
	s.mu.Unlock()
	if replay {
		return true
	}
	deliver()
	s.mu.Lock()
	s.entries = append(s.entries, e)
	s.mu.Unlock()
	l.entries.Add(1)
	l.bytes.Add(int64(e.simBytes))
	return false
}

// at returns the entry with absolute sequence seq, if logged and not yet
// trimmed.
func (s *p2pStream) at(seq int) (p2pEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq >= s.base+len(s.entries) {
		return p2pEntry{}, false
	}
	if seq < s.base {
		panic(fmt.Sprintf("mpi: msglog replay below GC watermark: key %+v seq %d base %d", s.key, seq, s.base))
	}
	return s.entries[seq-s.base], true
}

// len returns the stream's absolute length (next sequence number).
func (s *p2pStream) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base + len(s.entries)
}

// noteConsumed records that absolute seq was consumed by the receiver and
// reports whether this was a replay (a previous incarnation had already
// consumed it).
func (s *p2pStream) noteConsumed(seq int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.maxSeen {
		return true
	}
	s.maxSeen = seq + 1
	return false
}

// dropP2P removes s's first n entries and returns n. Caller holds s.mu.
func (l *MsgLog) dropP2P(s *p2pStream, n int) int {
	var b int64
	for _, e := range s.entries[:n] {
		b += int64(e.simBytes)
	}
	s.entries = slices.Delete(s.entries, 0, n)
	s.base += n
	l.entries.Add(-int64(n))
	l.bytes.Add(-b)
	return n
}

// dropColl removes the collective lineage's first n entries and returns
// n. Caller holds mu.
func (l *MsgLog) dropColl(n int) int {
	var b int64
	for _, e := range l.coll.entries[:n] {
		b += int64(e.simBytes)
	}
	l.coll.entries = slices.Delete(l.coll.entries, 0, n)
	l.coll.base += n
	l.entries.Add(-int64(n))
	l.bytes.Add(-b)
	return n
}

// AppendColl logs one completed lineage collective.
func (l *MsgLog) AppendColl(slots []slot, nArrived, simBytes int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.coll.entries = append(l.coll.entries, collEntry{slots: slots, nArrived: nArrived, simBytes: simBytes})
	l.entries.Add(1)
	l.bytes.Add(int64(simBytes))
	end := l.coll.base + len(l.coll.entries)
	l.collEnd.Store(int64(end))
	return end - 1
}

// collAt returns logged collective idx (absolute index). A live
// collective, at the lineage's end, misses without taking the lock.
func (l *MsgLog) collAt(idx int) (collEntry, bool) {
	if int64(idx) >= l.collEnd.Load() {
		return collEntry{}, false
	}
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

// snapshot records slot's boundary cursors for iteration iter, unless a
// snapshot for that boundary already exists (the first incarnation to
// reach a boundary owns its snapshot). The log takes ownership of cur:
// the caller must not write it afterwards.
func (l *MsgLog) snapshot(slot, iter int, cur cursorSnap) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.Active() {
		return
	}
	k := snapKey{slot: slot, iter: iter}
	if _, ok := l.snaps[k]; ok {
		return
	}
	l.snaps[k] = cur
}

// snapshotAt returns the recorded boundary snapshot for (slot, iter) and
// whether one was recorded. The snapshot is the log's: read-only.
func (l *MsgLog) snapshotAt(slot, iter int) (cursorSnap, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.snaps[snapKey{slot: slot, iter: iter}]
	return s, ok
}

// frontier returns, for every stream touching `slot`, the stream's
// absolute length — the cursor values of a rank that has sent and consumed
// everything logged for it. Used to fast-forward a replacement over a
// restored iteration whose successor boundary was never reached.
func (l *MsgLog) frontier(slot int) cursorSnap {
	l.mu.Lock()
	defer l.mu.Unlock()
	var send, recv []cursor
	for k, s := range l.p2p {
		n := s.len()
		if k.src == slot {
			send = append(send, cursor{key: k, n: n, s: s})
		}
		if k.dst == slot {
			recv = append(recv, cursor{key: k, n: n, s: s})
		}
	}
	return cursorSnap{cur: append(send, recv...), nSend: len(send), coll: l.coll.base + len(l.coll.entries)}
}

// NoteCommit records that `slot` committed checkpoint version `version` at
// virtual time `at`, and runs GC if the watermark advanced. It returns the
// new watermark, the number of entries trimmed by this call (0 if the
// watermark did not move) and the virtual time the watermark was reached:
// the latest over all slots of each slot's first commit of the watermark
// version or a later one. That time, unlike the wall-clock order of the
// slots' commits, is the same in every replay.
//
// A commit costs O(1) until every slot has committed above the watermark;
// only then is the minimum over slots recomputed, once per advance. While
// GC is held (see hold), commits are recorded and the advance waits for
// the release.
func (l *MsgLog) NoteCommit(slot, version int, at float64) (watermark, trimmed int, reached float64) {
	if l == nil {
		return -1, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.Active() || l.nSlots == 0 {
		return l.water, 0, 0
	}
	if v := l.commit[slot]; version > v {
		if v <= l.water && version > l.water {
			l.above++
		}
		l.commit[slot] = version
	}
	k := snapKey{slot: slot, iter: version}
	if _, ok := l.commitAt[k]; !ok && version > l.water {
		l.commitAt[k] = at
	}
	if l.above < l.nSlots || l.held {
		return l.water, 0, 0
	}
	return l.advanceLocked()
}

// advanceLocked moves the watermark to the minimum committed version,
// which is above the current one, and trims below it. Caller holds mu.
func (l *MsgLog) advanceLocked() (watermark, trimmed int, reached float64) {
	w := slices.Min(l.commit)
	l.water = w
	l.above = 0
	for _, v := range l.commit {
		if v > w {
			l.above++
		}
	}
	for k := range l.commitAt {
		if k.iter < w {
			delete(l.commitAt, k)
		}
	}
	for s := 0; s < l.nSlots; s++ {
		reached = max(reached, l.firstCommitLocked(s, w))
	}
	return w, l.trimLocked(w), reached
}

// firstCommitLocked returns the virtual time at which slot first committed
// version w or a later one. Every slot normally commits every version;
// one whose commit of w was rejected by the data backend committed a later
// one, the earliest of its remaining entries. Caller holds mu and has
// pruned the entries below w.
func (l *MsgLog) firstCommitLocked(slot, w int) float64 {
	if t, ok := l.commitAt[snapKey{slot: slot, iter: w}]; ok {
		return t
	}
	first, found := 0.0, false
	for k, t := range l.commitAt {
		if k.slot == slot && (!found || t < first) {
			first, found = t, true
		}
	}
	return first
}

// trimLocked drops every entry that belongs to an iteration before the
// watermark W, using the boundary-W snapshots: a stream's prefix below the
// sender's boundary-W send cursor was sent before iteration W and can
// never be replayed (replay never starts before the best common version,
// which is >= W). Caller holds mu; each stream's lock nests inside it.
func (l *MsgLog) trimLocked(w int) int {
	trimmed := 0
	for slot := 0; slot < l.nSlots; slot++ {
		snap, ok := l.snaps[snapKey{slot: slot, iter: w}]
		if !ok {
			continue
		}
		for _, c := range snap.send() {
			s := c.s
			s.mu.Lock()
			if n := min(c.n-s.base, len(s.entries)); n > 0 {
				trimmed += l.dropP2P(s, n)
			}
			s.mu.Unlock()
		}
	}
	// All boundary-W collective cursors are equal across slots (SPMD);
	// use slot 0's.
	if snap, ok := l.snaps[snapKey{slot: 0, iter: w}]; ok {
		if n := min(snap.coll-l.coll.base, len(l.coll.entries)); n > 0 {
			trimmed += l.dropColl(n)
		}
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
	return int(l.entries.Load()), l.bytes.Load(), l.trimmed, l.water
}
