package mpi

import "testing"

// White-box unit tests for the sender-based message log: the GC trim
// arithmetic, the once-per-generation reset, the replay frontier, and the
// width-mismatch self-disable. The end-to-end replay behaviour is covered
// by internal/core's localized-recovery tests; these pin the log's own
// bookkeeping against a synthetic two-slot lineage.

// logKey builds the canonical stream key used throughout.
func logKey(src, dst, tag int) p2pKey { return p2pKey{src: src, dst: dst, tag: tag} }

// seedEpoch appends one p2p message per direction and one collective, then
// snapshots both slots' cursors at the boundary of iteration iter with
// everything so far sent/consumed.
func seedEpoch(l *MsgLog, iter int) {
	l.AppendP2P(logKey(0, 1, 7), []byte{1}, 100, 1.0)
	l.AppendP2P(logKey(1, 0, 7), []byte{2}, 100, 1.0)
	l.AppendColl(nil, 2, 50)
	for s := 0; s < 2; s++ {
		l.Snapshot(s, iter, &CursorSnap{
			Send: map[p2pKey]int{logKey(s, 1-s, 7): l.p2pLen(logKey(s, 1-s, 7))},
			Recv: map[p2pKey]int{logKey(1-s, s, 7): l.p2pLen(logKey(1-s, s, 7))},
			Coll: l.collLen(),
		})
	}
}

func TestMsgLogTrimMath(t *testing.T) {
	l := NewMsgLog()
	l.RegisterComm(1, 2)
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
	if _, ok := l.p2pAt(logKey(0, 1, 7), 1); !ok {
		t.Fatal("post-watermark entry lost by the trim")
	}
	if got := l.p2pLen(logKey(0, 1, 7)); got != 2 {
		t.Fatalf("stream length = %d, want 2 (absolute, trim-invariant)", got)
	}
	// Replaying below the watermark is a protocol violation, not a miss.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("replay below the GC watermark did not panic")
			}
		}()
		l.p2pAt(logKey(0, 1, 7), 0)
	}()

	// A stale commit (version <= watermark) never re-trims or regresses.
	if w, n, _ := l.NoteCommit(0, 4, 4.0); w != 5 || n != 0 {
		t.Fatalf("stale commit moved the watermark: (%d, %d)", w, n)
	}
}

func TestMsgLogResetOnce(t *testing.T) {
	l := NewMsgLog()
	l.RegisterComm(1, 2)
	seedEpoch(l, 5)
	if !l.ResetOnce(1) {
		t.Fatal("first reset for generation 1 reported false")
	}
	if entries, bytes, _, w := l.Stats(); entries != 0 || bytes != 0 || w != -1 {
		t.Fatalf("reset left stats (%d, %d, watermark %d)", entries, bytes, w)
	}
	// Same or older generation: the log was already reset; no second wipe.
	l.AppendP2P(logKey(0, 1, 7), []byte{9}, 10, 2.0)
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
	l.RegisterComm(1, 2)
	seedEpoch(l, 5)
	l.AppendP2P(logKey(0, 1, 7), []byte{3}, 100, 2.0)
	f := l.frontier(0)
	if got := f.Send[logKey(0, 1, 7)]; got != 2 {
		t.Errorf("frontier send cursor = %d, want the stream length 2", got)
	}
	if got := f.Recv[logKey(1, 0, 7)]; got != 1 {
		t.Errorf("frontier recv cursor = %d, want 1", got)
	}
	if f.Coll != 1 {
		t.Errorf("frontier coll cursor = %d, want 1", f.Coll)
	}
	// Streams not touching the slot are absent in both directions.
	if _, ok := f.Send[logKey(1, 0, 7)]; ok {
		t.Error("frontier for slot 0 includes slot 1's send stream")
	}
}

func TestMsgLogWidthMismatchDisables(t *testing.T) {
	l := NewMsgLog()
	l.RegisterComm(1, 4)
	if !l.Active() || !l.registered(1) {
		t.Fatal("log inactive after first RegisterComm")
	}
	seedEpoch(l, 5)
	// A different width means slot identity changed (shrink compaction):
	// the slot-keyed streams are meaningless and the log must gut itself.
	l.RegisterComm(2, 3)
	if l.Active() {
		t.Fatal("log still active after a lineage width change")
	}
	if l.registered(1) || l.registered(2) {
		t.Fatal("disabled log still reports registered comms")
	}
	if entries, bytes, _, _ := l.Stats(); entries != 0 || bytes != 0 {
		t.Fatalf("disable retained (%d entries, %d bytes)", entries, bytes)
	}
	// The disable is sticky: re-registering the original width cannot
	// resurrect slot-keyed state.
	l.RegisterComm(3, 4)
	if l.Active() {
		t.Fatal("disable was not sticky")
	}
}

func TestMsgLogNoteConsumedReplayDetection(t *testing.T) {
	l := NewMsgLog()
	l.RegisterComm(1, 2)
	k := logKey(0, 1, 7)
	l.AppendP2P(k, []byte{1}, 10, 1.0)
	l.AppendP2P(k, []byte{2}, 10, 1.5)
	if l.noteConsumed(k, 0) {
		t.Error("first consumption of seq 0 flagged as replay")
	}
	if l.noteConsumed(k, 1) {
		t.Error("first consumption of seq 1 flagged as replay")
	}
	// A replacement re-reading the stream from the start is replaying.
	if !l.noteConsumed(k, 0) {
		t.Error("re-consumption below maxSeen not flagged as replay")
	}
	// Replay does not move the high-water mark backwards.
	if l.noteConsumed(k, 2) {
		t.Error("first consumption of seq 2 flagged as replay after a replay")
	}
}
