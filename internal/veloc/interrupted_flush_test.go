package veloc

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// TestRestartSkipsInterruptedFlush pins the node-crash recovery contract:
// a checkpoint whose asynchronous PFS flush was cut short by losing the
// node must not be offered at restart. The metadata may advertise the
// newer version, but restore has to fall back to the latest version whose
// flush actually completed.
func TestRestartSkipsInterruptedFlush(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		c, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		buf := []byte("generation-one-data")
		c.Protect(0, SliceRegion{&buf})

		if err := c.Checkpoint("ck", 1); err != nil {
			return err
		}
		// Let version 1's asynchronous flush drain to the PFS.
		p.ChargeTime(trace.AppCompute, 1e6)

		copy(buf, []byte("generation-two-data"))
		if err := c.Checkpoint("ck", 2); err != nil {
			return err
		}
		// The node dies while version 2's flush window is still open: node
		// scratch is gone and the in-flight PFS copy never completes.
		p.CrashNode()

		if c.Available("ck", 2) {
			t.Error("version 2 reported available after its flush was interrupted")
		}
		if !c.Available("ck", 1) {
			t.Error("version 1 (completed flush) should remain available")
		}

		// A restarted process on the replacement node sees only the PFS.
		r, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		restored := make([]byte, len(buf))
		r.Protect(0, SliceRegion{&restored})
		v, err := r.LatestVersion("ck")
		if err != nil {
			return err
		}
		if err := r.Restart("ck", v); err != nil {
			return err
		}
		if v != 1 {
			t.Errorf("restarted from version %d, want 1 (version 2's flush was interrupted)", v)
		}
		if !bytes.Equal(restored, []byte("generation-one-data")) {
			t.Errorf("restored %q, want generation-one data", restored)
		}

		// Recomputation forward must be able to overwrite the interrupted
		// version: a re-written checkpoint 2 becomes the restart point once
		// its flush completes.
		copy(restored, []byte("generation-2b!-data"))
		if err := r.Checkpoint("ck", 2); err != nil {
			return err
		}
		p.ChargeTime(trace.AppCompute, 1e6)
		if !r.Available("ck", 2) {
			t.Error("re-written version 2 should be available after its flush completed")
		}
		if v, err = r.LatestVersion("ck"); err != nil {
			return err
		}
		if err := r.Restart("ck", v); err != nil {
			return err
		}
		if v != 2 {
			t.Errorf("restarted from version %d after rewrite, want 2", v)
		}
		if !bytes.Equal(restored, []byte("generation-2b!-data")) {
			t.Errorf("restored %q, want the recomputed generation-2 data", restored)
		}
		return nil
	})
}

// TestRestartSkipsQueuedAndCancelledFlushes extends the node-crash
// contract to the flush scheduler: when the node dies, the version whose
// flush was in flight is interrupted (as before), a version still queued
// is discarded unstarted, and a version cancelled earlier by coalescing
// never existed on the PFS at all. Restart must fall back past all three
// to the newest version whose flush completed.
func TestRestartSkipsQueuedAndCancelledFlushes(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		p.World().Cluster().SetFlushPolicy(cluster.FlushPolicy{Window: 1, Coalesce: true})
		c, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		buf := []byte("generation-zero-data")
		c.Protect(0, SliceRegion{&buf})

		if err := c.Checkpoint("ck", 0); err != nil {
			return err
		}
		// Let version 0's flush drain; the window is free again.
		p.ChargeTime(trace.AppCompute, 1e6)

		// Version 1 starts immediately; versions 2 and 3 arrive while it is
		// still in flight, so 2 queues and is then cancelled by 3's
		// submission (same checkpoint, newer version).
		copy(buf, []byte("generation-one!-data"))
		if err := c.Checkpoint("ck", 1); err != nil {
			return err
		}
		copy(buf, []byte("generation-two!-data"))
		if err := c.Checkpoint("ck", 2); err != nil {
			return err
		}
		copy(buf, []byte("generation-tri!-data"))
		if err := c.Checkpoint("ck", 3); err != nil {
			return err
		}

		// The node dies: version 1's in-flight PFS write never completes,
		// and version 3 is discarded from the queue unstarted.
		p.CrashNode()

		for v := 1; v <= 3; v++ {
			if c.Available("ck", v) {
				t.Errorf("version %d reported available after the node crash", v)
			}
		}
		if !c.Available("ck", 0) {
			t.Error("version 0 (completed flush) should remain available")
		}

		r, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		restored := make([]byte, len(buf))
		r.Protect(0, SliceRegion{&restored})
		v, err := r.LatestVersion("ck")
		if err != nil {
			return err
		}
		if err := r.Restart("ck", v); err != nil {
			return err
		}
		if v != 0 {
			t.Errorf("restarted from version %d, want 0 (1 interrupted, 2 coalesced, 3 discarded)", v)
		}
		if !bytes.Equal(restored, []byte("generation-zero-data")) {
			t.Errorf("restored %q, want generation-zero data", restored)
		}
		return nil
	})
}
