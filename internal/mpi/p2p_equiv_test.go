package mpi

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Point-to-point golden transcripts. The send and receive paths are pinned
// by testdata/p2p_scenario_{8,64}.golden: the per-rank payloads, errors,
// exact final virtual clocks and complete observability event stream of
// one point-to-point program built from the operations the stack calls —
// SendSized, Sendrecv, SendrecvSized and IsendSized+Irecv+WaitAll with
// computation between post and wait, on the world communicator and on
// NewComm sub-communicators; two logged lineage passes and a replay of the
// second from the sender-based message log; a receive from a rank that
// exits, a send to a peer already observed dead, and a Revoke under
// blocked receives. No checkpoint flush runs, so the call-time congestion
// sample is always 1.

// p2pPayload is rank me's k-th payload: small and distinct per (me, k).
func p2pPayload(me, k int) []byte { return []byte{byte(me), byte(k), byte(me ^ k)} }

// runP2PScenario executes the point-to-point program on a fresh world of
// n ranks (n even, >= 4).
func runP2PScenario(t *testing.T, n int) engineTrace {
	t.Helper()
	cl := cluster.New(n, quietMachine())
	w := NewWorld(cl, n, 1, false, 1, 0)
	w.EnableMsgLog()
	rec := obs.New()
	w.SetObs(rec)

	var parity [2][]int
	for r := 0; r < n; r++ {
		parity[r%2] = append(parity[r%2], r)
	}
	subs := [2]*Comm{w.NewComm(parity[0]), w.NewComm(parity[1])}
	lineage := w.NewComm(identityGroup(n))
	w.RegisterLineageComm(lineage)
	survivors := identityGroup(n - 1)
	revoked, final := w.NewComm(survivors), w.NewComm(survivors)

	transcripts := make([][]string, n)
	var mu sync.Mutex
	note := func(p *Proc, format string, args ...any) {
		mu.Lock()
		transcripts[p.Rank()] = append(transcripts[p.Rank()], fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	// ring runs one blocking and one nonblocking neighbour exchange on c:
	// SendSized/Recv to the right, then IsendSized+Irecv both ways with
	// rank-dependent computation between post and wait, so some transfers
	// hide behind it and some do not.
	ring := func(p *Proc, c *Comm, label string, k int) error {
		me, size := c.Rank(p), c.Size()
		right, left := (me+1)%size, (me+size-1)%size
		if err := c.SendSized(p, right, k, p2pPayload(me, k), (me+1)<<20); err != nil {
			return err
		}
		got, err := c.Recv(p, left, k)
		if err != nil {
			return err
		}
		note(p, "%s send/recv %v t=%.9f", label, got, p.Now())

		reqs := make([]*Request, 4)
		if reqs[0], err = c.Irecv(p, left, k+1); err != nil {
			return err
		}
		if reqs[1], err = c.Irecv(p, right, k+2); err != nil {
			return err
		}
		if reqs[2], err = c.IsendSized(p, right, k+1, p2pPayload(me, k+1), 2<<20); err != nil {
			return err
		}
		if reqs[3], err = c.IsendSized(p, left, k+2, p2pPayload(me, k+2), (me%3+1)<<19); err != nil {
			return err
		}
		p.Compute(float64(me%4) * 1e6)
		out, err := WaitAll(reqs)
		if err != nil {
			return err
		}
		note(p, "%s waitall %v %v t=%.9f", label, out[0], out[1], p.Now())
		return nil
	}

	errs := runWorld(w, func(p *Proc) error {
		c := w.CommWorld()
		me := c.Rank(p)
		right, left := (me+1)%n, (me+n-1)%n

		got, err := c.Sendrecv(p, right, 1, p2pPayload(me, 1), left, 1)
		if err != nil {
			return err
		}
		note(p, "sendrecv %v t=%.9f", got, p.Now())
		if got, err = c.SendrecvSized(p, left, 2, p2pPayload(me, 2), 4<<20, right, 2); err != nil {
			return err
		}
		note(p, "sendrecv sized %v t=%.9f", got, p.Now())
		if err := ring(p, c, "world", 10); err != nil {
			return err
		}
		sub := subs[me%2]
		if err := ring(p, sub, fmt.Sprintf("sub comm %d rank %d", sub.ID(), sub.Rank(p)), 20); err != nil {
			return err
		}

		// Logged lineage passes, then a replay of the second: rewinding
		// the cursors to the iteration-1 boundary makes its sends
		// duplicates (suppressed) and its receives log hits (served with
		// the logged arrival). A sender logs a message just after
		// delivering it, so the receiver may consume it first: the first
		// pass creates every stream, so the second pass's receives always
		// record their consumption, and the barrier orders every append
		// before the replay that reads it.
		if err := ring(p, lineage, "lineage", 30); err != nil {
			return err
		}
		p.MsgLogRecord(me, 1)
		if err := ring(p, lineage, "lineage", 30); err != nil {
			return err
		}
		if err := c.Barrier(p); err != nil {
			return err
		}
		if !p.MsgLogInstall(me, 1, true) {
			return fmt.Errorf("rank %d: no boundary snapshot for iteration 1", me)
		}
		if err := ring(p, lineage, "lineage replay", 30); err != nil {
			return err
		}

		// Mid-program failure: the last rank exits. Its left neighbour
		// blocks in Recv and its right neighbour in Irecv+Wait; both must
		// see FailedError at the detection floor, and a second send to
		// the now-observed-dead rank fails fast. The other survivors'
		// sends to it complete locally: they have not observed the death.
		if me == n-1 {
			note(p, "exiting t=%.9f", p.Now())
			p.Exit()
		}
		switch me {
		case n - 2:
			_, err = c.Recv(p, n-1, 40)
			note(p, "recv from exited err=%v t=%.9f", err, p.Now())
		case 0:
			req, _ := c.Irecv(p, n-1, 40)
			_, err = req.Wait()
			note(p, "wait from exited err=%v t=%.9f", err, p.Now())
		default:
			err = c.Send(p, n-1, 41, p2pPayload(me, 41))
			note(p, "send to unobserved dead err=%v t=%.9f", err, p.Now())
			if err != nil {
				return fmt.Errorf("rank %d: send to an unobserved dead peer returned %v", me, err)
			}
		}
		if me == 0 || me == n-2 {
			if !IsProcessFailure(err) {
				return fmt.Errorf("rank %d: receive from an exited rank returned %v", me, err)
			}
			err = c.SendSized(p, n-1, 42, p2pPayload(me, 42), 1<<20)
			note(p, "send to observed dead err=%v t=%.9f", err, p.Now())
			if !IsProcessFailure(err) {
				return fmt.Errorf("rank %d: send to an observed-dead peer returned %v", me, err)
			}
		}

		// Revocation: comm rank 0 computes, then revokes while every other
		// member is blocked (in virtual time) in a Recv from it; they are
		// released with ErrRevoked at the revoker's departure stamp. The
		// revoker's own Irecv from comm rank 1 ends at rank 1's departure,
		// and a departed member's send fails fast.
		if revoked.Rank(p) == 0 {
			p.Compute(2e6)
			revoked.Revoke(p)
			note(p, "revoke comm %d t=%.9f", revoked.ID(), p.Now())
			req, _ := revoked.Irecv(p, 1, 50)
			_, err = req.Wait()
			note(p, "revoked wait err=%v t=%.9f", err, p.Now())
		} else {
			_, err = revoked.Recv(p, 0, 50)
			note(p, "revoked recv err=%v t=%.9f", err, p.Now())
			if IsRevoked(err) {
				err = revoked.Send(p, 0, 51, p2pPayload(me, 51))
				note(p, "departed send err=%v t=%.9f", err, p.Now())
			}
		}
		if !IsRevoked(err) {
			return fmt.Errorf("rank %d: p2p on the revoked comm returned %v", me, err)
		}

		return ring(p, final, "final", 60)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	checkWakesConsumed(t, w)
	clocks := make([]float64, n)
	for i := 0; i < n; i++ {
		clocks[i] = w.Proc(i).Now()
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return engineTrace{transcripts: transcripts, clocks: clocks, events: buf.Bytes()}
}

// testP2PEquivalence runs the scenario on n ranks and compares the run
// against the golden file; -update rewrites the file from the run
// instead.
func testP2PEquivalence(t *testing.T, n int) {
	path := filepath.Join("testdata", fmt.Sprintf("p2p_scenario_%d.golden", n))
	header := fmt.Sprintf("# Point-to-point scenario on %d ranks (p2p_equiv_test.go).\n"+
		"# Regenerate: go test ./internal/mpi -run 'TestP2PEquivalence%d$' -update\n", n, n)
	got := append([]byte(header), runP2PScenario(t, n).body()...)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	compareGolden(t, path, got, want)
}

func TestP2PEquivalence8(t *testing.T)  { testP2PEquivalence(t, 8) }
func TestP2PEquivalence64(t *testing.T) { testP2PEquivalence(t, 64) }
