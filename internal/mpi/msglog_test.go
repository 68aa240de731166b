package mpi

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// White-box unit tests for the sender-based message log: the GC trim
// arithmetic, the once-per-generation reset, the replay frontier, the
// width-mismatch self-disable, the O(1) watermark against a brute-force
// minimum, snapshot ownership, and the per-stream locks under the race
// detector. The end-to-end replay behaviour is covered by internal/core's
// localized-recovery tests; these pin the log's own bookkeeping against
// synthetic lineages.

// lineageOf builds a stand-alone lineage communicator of n slots over
// world ranks 0..n-1.
func lineageOf(n int) *Comm {
	c := &Comm{group: identityGroup(n), index: make(map[int]int, n)}
	for i := range c.group {
		c.index[i] = i
	}
	return c
}

// logKey builds the canonical stream key used throughout.
func logKey(src, dst, tag int) p2pKey { return p2pKey{src: src, dst: dst, tag: tag} }

// appendP2P logs one message at the end of key's stream, as a send past
// the stream's frontier does.
func appendP2P(l *MsgLog, key p2pKey, data []byte, simBytes int, at float64) {
	s := l.stream(key)
	l.send(s, s.len(), p2pEntry{data: data, simBytes: simBytes, arriveAt: at}, func() {})
}

// frontierCursor is a cursor at key's current stream length.
func frontierCursor(l *MsgLog, key p2pKey) cursor {
	s := l.stream(key)
	return cursor{key: key, n: s.len(), s: s}
}

// seedEpoch appends one p2p message per direction and one collective, then
// snapshots both slots' cursors at the boundary of iteration iter with
// everything so far sent/consumed.
func seedEpoch(l *MsgLog, iter int) {
	appendP2P(l, logKey(0, 1, 7), []byte{1}, 100, 1.0)
	appendP2P(l, logKey(1, 0, 7), []byte{2}, 100, 1.0)
	l.AppendColl(nil, 2, 50)
	for s := 0; s < 2; s++ {
		l.snapshot(s, iter, cursorSnap{
			cur:   []cursor{frontierCursor(l, logKey(s, 1-s, 7)), frontierCursor(l, logKey(1-s, s, 7))},
			nSend: 1,
			coll:  int(l.collEnd.Load()),
		})
	}
}

func TestMsgLogTrimMath(t *testing.T) {
	l := NewMsgLog()
	l.register(lineageOf(2))
	// Epoch 0 traffic, boundary snapshots at iter 5, epoch 1 traffic.
	seedEpoch(l, 5)
	seedEpoch(l, 10)
	if entries, bytes, trimmed, w := l.Stats(); entries != 6 || bytes != 500 || trimmed != 0 || w != -1 {
		t.Fatalf("pre-GC stats = (%d, %d, %d, %d), want (6, 500, 0, -1)", entries, bytes, trimmed, w)
	}

	// One slot committing moves nothing: the watermark is a min over all.
	// Slot 0 commits at a later virtual time than slot 1 does below, as a
	// slow rank's commit can complete in wall-clock order before a fast
	// rank's: the watermark is reached at the later virtual time either
	// way.
	if w, n, _ := l.NoteCommit(0, 5, 3.0); w != -1 || n != 0 {
		t.Fatalf("single-slot commit advanced the watermark: (%d, %d)", w, n)
	}
	// The second commit completes version 5 everywhere: the epoch-0 prefix
	// (2 p2p + 1 coll, 250 sim bytes) is below every boundary-5 cursor and
	// must go; the epoch-1 entries survive.
	w, n, at := l.NoteCommit(1, 5, 2.0)
	if w != 5 || n != 3 || at != 3.0 {
		t.Fatalf("full commit -> (watermark %d, trimmed %d, at %v), want (5, 3, 3)", w, n, at)
	}
	entries, bytes, trimmed, _ := l.Stats()
	if entries != 3 || bytes != 250 || trimmed != 3 {
		t.Fatalf("post-GC stats = (%d, %d, %d), want (3, 250, 3)", entries, bytes, trimmed)
	}
	// Absolute sequence numbers survive the trim: seq 1 (epoch 1's message)
	// is still served, and stream length counts trimmed entries.
	s := l.stream(logKey(0, 1, 7))
	if _, ok := s.at(1); !ok {
		t.Fatal("post-watermark entry lost by the trim")
	}
	if got := s.len(); got != 2 {
		t.Fatalf("stream length = %d, want 2 (absolute, trim-invariant)", got)
	}
	// Replaying below the watermark is a protocol violation, not a miss.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("replay below the GC watermark did not panic")
			}
		}()
		s.at(0)
	}()

	// A stale commit (version <= watermark) never re-trims or regresses.
	if w, n, _ := l.NoteCommit(0, 4, 4.0); w != 5 || n != 0 {
		t.Fatalf("stale commit moved the watermark: (%d, %d)", w, n)
	}
}

func TestMsgLogResetOnce(t *testing.T) {
	l := NewMsgLog()
	l.register(lineageOf(2))
	seedEpoch(l, 5)
	s := l.stream(logKey(0, 1, 7))
	if !l.ResetOnce(1) {
		t.Fatal("first reset for generation 1 reported false")
	}
	if entries, bytes, _, w := l.Stats(); entries != 0 || bytes != 0 || w != -1 {
		t.Fatalf("reset left stats (%d, %d, watermark %d)", entries, bytes, w)
	}
	// The reset empties streams in place: a cursor's cached pointer still
	// names the stream the log appends to.
	if l.stream(logKey(0, 1, 7)) != s || s.len() != 0 {
		t.Fatal("reset replaced the stream or left it non-empty")
	}
	// Same or older generation: the log was already reset; no second wipe.
	appendP2P(l, logKey(0, 1, 7), []byte{9}, 10, 2.0)
	if l.ResetOnce(1) || l.ResetOnce(0) {
		t.Fatal("repeat reset for an already-reset generation reported true")
	}
	if entries, _, _, _ := l.Stats(); entries != 1 {
		t.Fatalf("repeat ResetOnce wiped the new epoch: %d entries", entries)
	}
	// A later generation resets again; a disabled log never does.
	if !l.ResetOnce(2) {
		t.Fatal("reset for a newer generation reported false")
	}
	l.Disable()
	if l.ResetOnce(3) {
		t.Fatal("disabled log accepted a reset")
	}
}

func TestMsgLogFrontier(t *testing.T) {
	l := NewMsgLog()
	l.register(lineageOf(2))
	seedEpoch(l, 5)
	appendP2P(l, logKey(0, 1, 7), []byte{3}, 100, 2.0)
	f := l.frontier(0)
	find := func(cs []cursor, key p2pKey) (int, bool) {
		for _, c := range cs {
			if c.key == key {
				return c.n, true
			}
		}
		return 0, false
	}
	if got, _ := find(f.send(), logKey(0, 1, 7)); got != 2 {
		t.Errorf("frontier send cursor = %d, want the stream length 2", got)
	}
	if got, _ := find(f.recv(), logKey(1, 0, 7)); got != 1 {
		t.Errorf("frontier recv cursor = %d, want 1", got)
	}
	if f.coll != 1 {
		t.Errorf("frontier coll cursor = %d, want 1", f.coll)
	}
	// Streams not touching the slot are absent in both directions.
	if _, ok := find(f.send(), logKey(1, 0, 7)); ok {
		t.Error("frontier for slot 0 includes slot 1's send stream")
	}
}

func TestMsgLogWidthMismatchDisables(t *testing.T) {
	l := NewMsgLog()
	if !l.register(lineageOf(4)) || !l.Active() {
		t.Fatal("log refused or inactive after the first registration")
	}
	seedEpoch(l, 5)
	// A different width means slot identity changed (shrink compaction):
	// the slot-keyed streams are meaningless and the log must gut itself.
	if l.register(lineageOf(3)) {
		t.Fatal("a lineage width change was admitted")
	}
	if l.Active() {
		t.Fatal("log still active after a lineage width change")
	}
	if entries, bytes, _, _ := l.Stats(); entries != 0 || bytes != 0 {
		t.Fatalf("disable retained (%d entries, %d bytes)", entries, bytes)
	}
	// The disable is sticky: re-registering the original width cannot
	// resurrect slot-keyed state.
	if l.register(lineageOf(4)) || l.Active() {
		t.Fatal("disable was not sticky")
	}
}

// TestMsgLogLineageGate checks that the lineage mark lives on the
// communicator and the log's state gates it: a registered comm is logged
// while the log is active, an unregistered one never, and nothing is once
// the log is disabled.
func TestMsgLogLineageGate(t *testing.T) {
	w := NewWorld(cluster.New(2, quietMachine()), 2, 1, false, 1, 0)
	w.EnableMsgLog()
	lineage, other := w.CommWorld(), w.NewComm([]int{0, 1})
	w.RegisterLineageComm(lineage)
	p := w.Proc(0)
	if p.msglogOn(lineage) == nil || p.msglogOn(other) != nil {
		t.Fatal("the log gate does not follow the lineage mark")
	}
	p.LogExemptBegin()
	if p.msglogOn(lineage) != nil {
		t.Error("an exempt section is logged")
	}
	p.LogExemptEnd()
	w.MsgLog().Disable()
	if p.msglogOn(lineage) != nil || p.MsgLogActive() {
		t.Fatal("a disabled log still mediates lineage traffic")
	}
}

func TestMsgLogNoteConsumedReplayDetection(t *testing.T) {
	l := NewMsgLog()
	l.register(lineageOf(2))
	k := logKey(0, 1, 7)
	appendP2P(l, k, []byte{1}, 10, 1.0)
	appendP2P(l, k, []byte{2}, 10, 1.5)
	s := l.stream(k)
	if s.noteConsumed(0) {
		t.Error("first consumption of seq 0 flagged as replay")
	}
	if s.noteConsumed(1) {
		t.Error("first consumption of seq 1 flagged as replay")
	}
	// A replacement re-reading the stream from the start is replaying.
	if !s.noteConsumed(0) {
		t.Error("re-consumption below maxSeen not flagged as replay")
	}
	// Replay does not move the high-water mark backwards.
	if s.noteConsumed(2) {
		t.Error("first consumption of seq 2 flagged as replay after a replay")
	}
}

// watermarkModel is the brute-force reference for NoteCommit: every
// commit recomputes the minimum over all slots, and the trim is replayed
// stream by stream against the boundary cursors the test recorded.
type watermarkModel struct {
	commit   map[int]int
	commitAt map[snapKey]float64
	water    int
	base     []int // per sender's stream, then the collective lineage
}

func newWatermarkModel(slots int) *watermarkModel {
	return &watermarkModel{commit: map[int]int{}, commitAt: map[snapKey]float64{}, water: -1, base: make([]int, slots+1)}
}

// note applies one commit; the log holds one message per stream and one
// collective per iteration, so every boundary-k cursor is k.
func (m *watermarkModel) note(slots, slot, version int, at float64) (water, trimmed int, reached float64) {
	if v, ok := m.commit[slot]; !ok || version > v {
		m.commit[slot] = version
	}
	if _, ok := m.commitAt[snapKey{slot, version}]; !ok && version > m.water {
		m.commitAt[snapKey{slot, version}] = at
	}
	w := -1
	for s := 0; s < slots; s++ {
		v, ok := m.commit[s]
		if !ok {
			return m.water, 0, 0
		}
		if w == -1 || v < w {
			w = v
		}
	}
	if w <= m.water {
		return m.water, 0, 0
	}
	m.water = w
	for s := 0; s < slots; s++ {
		t, ok := m.commitAt[snapKey{s, w}]
		if !ok {
			first := -1.0
			for k, kt := range m.commitAt {
				if k.slot == s && k.iter >= w && (first < 0 || kt < first) {
					first = kt
				}
			}
			t = first
		}
		reached = max(reached, t)
	}
	for i := range m.base {
		if w > m.base[i] {
			trimmed += w - m.base[i]
			m.base[i] = w
		}
	}
	return w, trimmed, reached
}

// TestMsgLogWatermarkMatchesBruteForce drives random per-slot commit
// sequences, with resets mixed in, through the O(1) watermark and
// compares every call's watermark, reach time and trimmed count with a
// minimum recomputed over all slots each time.
func TestMsgLogWatermarkMatchesBruteForce(t *testing.T) {
	const iters = 24
	for seed := uint64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewPCG(seed, 1))
		slots := 2 + rng.IntN(5)
		l := NewMsgLog()
		l.register(lineageOf(slots))
		// populate lays down one epoch per iteration: boundary-k
		// snapshots, then one message per slot's stream and one
		// collective.
		populate := func() {
			for k := 0; k < iters; k++ {
				for s := 0; s < slots; s++ {
					l.snapshot(s, k, cursorSnap{cur: []cursor{frontierCursor(l, logKey(s, (s+1)%slots, 0))}, nSend: 1, coll: k})
				}
				for s := 0; s < slots; s++ {
					appendP2P(l, logKey(s, (s+1)%slots, 0), nil, 8, 0)
				}
				l.AppendColl(nil, slots, 8)
			}
		}
		populate()
		m := newWatermarkModel(slots)
		clock := make([]float64, slots)
		version := make([]int, slots)
		gen := 0
		for op := 0; op < 400; op++ {
			if rng.IntN(60) == 0 {
				gen++
				if !l.ResetOnce(gen) {
					t.Fatalf("seed %d: reset for generation %d refused", seed, gen)
				}
				populate()
				m = newWatermarkModel(slots)
				clear(version)
				continue
			}
			s := rng.IntN(slots)
			// Mostly forward, sometimes a stale or repeated version.
			version[s] = min(iters-1, max(0, version[s]+rng.IntN(4)-1))
			clock[s] += rng.Float64()
			gotW, gotN, gotAt := l.NoteCommit(s, version[s], clock[s])
			wantW, wantN, wantAt := m.note(slots, s, version[s], clock[s])
			if gotW != wantW || gotN != wantN || gotAt != wantAt {
				t.Fatalf("seed %d op %d: NoteCommit(%d, %d) = (%d, %d, %v), brute force (%d, %d, %v)",
					seed, op, s, version[s], gotW, gotN, gotAt, wantW, wantN, wantAt)
			}
		}
		entries, _, _, _ := l.Stats()
		live := 0
		for s := 0; s < slots; s++ {
			live += iters - m.base[s]
		}
		if want := live + iters - m.base[slots]; entries != want {
			t.Fatalf("seed %d: %d live entries, want %d", seed, entries, want)
		}
	}
}

// TestMsgLogSnapshotOwned pins snapshot ownership, in the style of
// TestPayloadImmutable: a recorded boundary snapshot is the log's, so
// neither the recording rank advancing its cursors nor a replacement
// installing the snapshot and sending past it may write it.
func TestMsgLogSnapshotOwned(t *testing.T) {
	w := NewWorld(cluster.New(3, quietMachine()), 3, 1, false, 1, 0)
	w.EnableMsgLog()
	c := w.NewComm([]int{0, 1})
	w.RegisterLineageComm(c)
	p0, p1 := w.Proc(0), w.Proc(1)
	send := func(p *Proc, c *Comm, n int) {
		for i := 0; i < n; i++ {
			if err := c.Send(p, 1, 7, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	recv := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Recv(p1, 0, 7); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(p0, c, 2)
	recv(1)
	p0.MsgLogRecord(0, 5)
	p1.MsgLogRecord(1, 5)
	snap0, _ := w.MsgLog().snapshotAt(0, 5)
	snap1, _ := w.MsgLog().snapshotAt(1, 5)
	want0, want1 := slices.Clone(snap0.cur), slices.Clone(snap1.cur)
	check := func(when string) {
		t.Helper()
		got0, _ := w.MsgLog().snapshotAt(0, 5)
		got1, _ := w.MsgLog().snapshotAt(1, 5)
		if !slices.Equal(got0.cur, want0) || !slices.Equal(got1.cur, want1) {
			t.Fatalf("%s: boundary snapshots changed: %v %v, recorded %v %v", when, got0.cur, got1.cur, want0, want1)
		}
	}

	send(p0, c, 3)
	recv(2)
	check("after the recording ranks advanced")

	// World rank 2 replaces slot 0 on the repaired lineage comm, rewinds
	// to the boundary and re-executes: three suppressed sends, then three
	// new ones past the stream's end.
	repaired := w.NewComm([]int{2, 1})
	w.RegisterLineageComm(repaired)
	p2 := w.Proc(2)
	if !p2.MsgLogInstall(0, 5, true) {
		t.Fatal("no boundary snapshot to install")
	}
	send(p2, repaired, 6)
	check("after a replacement installed the snapshot and sent past it")
	if got := w.MsgLog().stream(logKey(0, 1, 7)).len(); got != 8 {
		t.Fatalf("stream length %d, want 8 (5 logged, 3 suppressed replays, 3 new)", got)
	}
}

// TestMsgLogConcurrentStreams runs appends on distinct streams from 8
// goroutines against a committer that advances the watermark and trims
// under the log lock, then checks that every stream's base plus its live
// entries adds up to what was appended and that the log's counters agree.
// Run under -race, it checks the log -> stream lock order and the atomic
// counters.
func TestMsgLogConcurrentStreams(t *testing.T) {
	const senders, epochs, perEpoch = 8, 20, 5
	l := NewMsgLog()
	l.register(lineageOf(senders))
	var wg sync.WaitGroup
	boundary := make(chan int, senders*epochs)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			key := logKey(s, (s+1)%senders, 0)
			st := l.stream(key)
			for e := 0; e < epochs; e++ {
				l.snapshot(s, e, cursorSnap{cur: []cursor{{key: key, n: e * perEpoch, s: st}}, nSend: 1})
				boundary <- s
				for i := 0; i < perEpoch; i++ {
					if l.send(st, e*perEpoch+i, p2pEntry{simBytes: 8}, func() {}) {
						t.Errorf("slot %d: fresh send at %d taken for a replay", s, e*perEpoch+i)
					}
				}
			}
		}(s)
	}
	committed := make([]int, senders)
	trimmed := 0
	for i := 0; i < senders*epochs; i++ {
		s := <-boundary
		// A slot commits the version of the boundary it just recorded.
		_, n, _ := l.NoteCommit(s, committed[s], 0)
		trimmed += n
		committed[s]++
	}
	wg.Wait()
	entries, bytes, total, water := l.Stats()
	if int64(trimmed) != total {
		t.Fatalf("NoteCommit reported %d trimmed, the log counts %d", trimmed, total)
	}
	live := 0
	for s := 0; s < senders; s++ {
		st := l.stream(logKey(s, (s+1)%senders, 0))
		if st.base+len(st.entries) != epochs*perEpoch {
			t.Errorf("slot %d: base %d + %d live entries != %d appended", s, st.base, len(st.entries), epochs*perEpoch)
		}
		if water >= 0 && st.base != water*perEpoch {
			t.Errorf("slot %d: base %d, want %d below watermark %d", s, st.base, water*perEpoch, water)
		}
		live += len(st.entries)
	}
	if entries != live || bytes != int64(8*live) || int(total)+live != senders*epochs*perEpoch {
		t.Fatalf("counters (%d entries, %d bytes, %d trimmed) disagree with %d live of %d appended",
			entries, bytes, total, live, senders*epochs*perEpoch)
	}
}

// TestMsgLogGCHeldThroughRecovery pins the GC hold: after a lineage
// member dies, commits are recorded but the watermark waits, so a
// survivor that has yet to rewind its collective cursor still finds the
// boundary snapshots; the first logged collective on a communicator
// created after the death runs the deferred advance. A death outside the
// lineage holds nothing, and a collective on the old communicator releases
// nothing.
func TestMsgLogGCHeldThroughRecovery(t *testing.T) {
	w := NewWorld(cluster.New(3, quietMachine()), 3, 1, false, 1, 0)
	w.EnableMsgLog()
	l := w.MsgLog()
	old := w.NewComm([]int{0, 1})
	w.RegisterLineageComm(old)
	seedEpoch(l, 5)
	seedEpoch(l, 10)

	w.markDead(2) // not a lineage member
	if _, n, _ := l.NoteCommit(0, 5, 1); n != 0 {
		t.Fatal("trimmed before every slot committed")
	}
	if water, n, _ := l.NoteCommit(1, 5, 2); water != 5 || n != 3 {
		t.Fatalf("a death outside the lineage held GC: (watermark %d, trimmed %d)", water, n)
	}

	w.markDead(1)
	l.NoteCommit(0, 10, 3)
	if water, n, _ := l.NoteCommit(1, 10, 4); water != 5 || n != 0 {
		t.Fatalf("a lineage death did not hold GC: (watermark %d, trimmed %d)", water, n)
	}
	if _, ok := l.snapshotAt(0, 5); !ok {
		t.Fatal("held GC dropped a boundary snapshot")
	}
	if _, _, _, ok := l.release(old.id); ok {
		t.Fatal("a collective on the pre-death communicator released the hold")
	}
	repaired := w.NewComm([]int{0, 1})
	water, n, at, ok := l.release(repaired.id)
	if !ok || water != 10 || n != 3 || at != 4 {
		t.Fatalf("release -> (watermark %d, trimmed %d, at %v, %v), want (10, 3, 4, true)", water, n, at, ok)
	}
	if _, _, _, ok := l.release(repaired.id); ok {
		t.Fatal("a second release ran another advance")
	}
}
