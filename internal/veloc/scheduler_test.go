package veloc

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runObsRanks is runRanks with an event recorder attached to the world and
// the given flush policy installed on every node.
func runObsRanks(t *testing.T, n int, policy cluster.FlushPolicy, f func(p *mpi.Proc) error) *obs.Recorder {
	t.Helper()
	cl := cluster.New(n, quietMachine())
	cl.SetFlushPolicy(policy)
	rec := obs.New()
	w := mpi.NewWorld(cl, n, 1, false, 1, 0)
	w.SetObs(rec)
	res := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(p *mpi.Proc) {
			defer func() { done <- p.Rank() }()
			defer func() { recover() }()
			res[p.Rank()] = f(p)
		}(w.Proc(i))
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i, e := range res {
		if e != nil {
			t.Fatalf("rank %d: %v", i, e)
		}
	}
	return rec
}

func countEvents(rec *obs.Recorder, name string) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Name == name {
			n++
		}
	}
	return n
}

// TestScheduledCheckpointEmitsSchedulerEvents pins the scheduler's event
// and metric contract: every checkpoint emits flush_queued and (once
// committed) flush_start/flush_end; superseded queued versions are counted
// by veloc_flush_coalesced_total and emit neither start nor end.
func TestScheduledCheckpointEmitsSchedulerEvents(t *testing.T) {
	rec := runObsRanks(t, 1, cluster.FlushPolicy{Window: 1, Coalesce: true}, func(p *mpi.Proc) error {
		c, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		c.Protect(0, SliceRegion{&buf})
		// v0 starts at once; v1 and v2 arrive while v0 is in flight, so v1
		// queues and v2's submission cancels it.
		for v := 0; v <= 2; v++ {
			if err := c.Checkpoint("ck", v); err != nil {
				return err
			}
		}
		// Drain: v2 commits once the clock passes v0's window.
		p.ChargeTime(trace.AppCompute, 1e6)
		c.syncFlushes()
		return nil
	})

	if got := countEvents(rec, obs.EvVeloCFlushQueued); got != 3 {
		t.Errorf("flush_queued events = %d, want 3 (one per checkpoint)", got)
	}
	if got := countEvents(rec, obs.EvVeloCFlushBegin); got != 3 {
		t.Errorf("flush_begin events = %d, want 3 (emitted in both modes)", got)
	}
	if got := countEvents(rec, obs.EvVeloCFlushStart); got != 2 {
		t.Errorf("flush_start events = %d, want 2 (v1 was coalesced)", got)
	}
	if got := countEvents(rec, obs.EvVeloCFlushEnd); got != 2 {
		t.Errorf("flush_end events = %d, want 2 (v1 was coalesced)", got)
	}
	reg := rec.Registry()
	if got := reg.CounterValue(obs.MFlushCoalesced); got != 1 {
		t.Errorf("%s = %v, want 1", obs.MFlushCoalesced, got)
	}
	if got := reg.CounterValue(obs.MFlushes); got != 3 {
		t.Errorf("%s = %v, want 3 (counted at submission)", obs.MFlushes, got)
	}

	// The committed v2 waited in the queue behind v0's window: its
	// flush_start must carry a positive wait, mirrored by the queue-wait
	// histogram.
	var v2wait float64 = -1
	for _, e := range rec.Events() {
		if e.Name != obs.EvVeloCFlushStart {
			continue
		}
		var version int
		var wait float64
		for _, a := range e.Attrs {
			switch a.Key {
			case "version":
				version, _ = a.Value.(int)
			case "wait_seconds":
				wait, _ = a.Value.(float64)
			}
		}
		if version == 2 {
			v2wait = wait
		}
	}
	if v2wait <= 0 {
		t.Errorf("v2 flush_start wait_seconds = %v, want > 0 (queued behind v0)", v2wait)
	}
}

// TestRestartStallOnPendingFlushCountsAsFlushWait pins the restore half of
// veloc_flush_wait_seconds: a PFS restore that has to wait out a
// still-draining flush adds the stall to the counter.
func TestRestartStallOnPendingFlushCountsAsFlushWait(t *testing.T) {
	rec := runObsRanks(t, 1, cluster.FlushPolicy{Window: 1, Coalesce: true}, func(p *mpi.Proc) error {
		c, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		c.Protect(0, SliceRegion{&buf})
		if err := c.Checkpoint("ck", 0); err != nil {
			return err
		}
		// Commit v0's flush before dropping the scratch copy: commitment is
		// strictly lazy, so the PFS write needs an observation strictly
		// after the submission instant (and well inside the open window).
		p.ChargeTime(trace.AppCompute, 1e-12)
		p.Node().AdvanceFlushes(p.Now())
		// Drop the scratch copy so restore must read the PFS while v0's
		// flush window is still open.
		p.Node().ScratchDelete(dataKey("ck", 0, c.rank))
		restored := make([]byte, len(buf))
		r, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		r.Protect(0, SliceRegion{&restored})
		v, err := r.LatestVersion("ck")
		if err != nil {
			return err
		}
		return r.Restart("ck", v)
	})
	if got := rec.Registry().CounterValue(obs.MFlushWaitSeconds); got <= 0 {
		t.Errorf("%s = %v, want > 0 (restore stalled on the open flush window)", obs.MFlushWaitSeconds, got)
	}
}

// TestZeroPolicyKeepsUnscheduledBehaviour pins that the zero FlushPolicy
// changes nothing: no scheduler events, no queue, flush_end carries the
// completion-time queue depth (the PR 4 sampling bugfix applies in both
// modes).
func TestZeroPolicyKeepsUnscheduledBehaviour(t *testing.T) {
	rec := runObsRanks(t, 1, cluster.FlushPolicy{}, func(p *mpi.Proc) error {
		c, err := New(p, Config{Mode: Single})
		if err != nil {
			return err
		}
		buf := make([]byte, 64)
		c.Protect(0, SliceRegion{&buf})
		if err := c.Checkpoint("ck", 0); err != nil {
			return err
		}
		p.ChargeTime(trace.AppCompute, 1e6)
		return nil
	})
	if got := countEvents(rec, obs.EvVeloCFlushQueued); got != 0 {
		t.Errorf("flush_queued events = %d with scheduling off, want 0", got)
	}
	if got := countEvents(rec, obs.EvVeloCFlushStart); got != 0 {
		t.Errorf("flush_start events = %d with scheduling off, want 0", got)
	}
	var sawDepth bool
	for _, e := range rec.Events() {
		if e.Name != obs.EvVeloCFlushEnd {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key == "queue_depth" {
				sawDepth = true
			}
		}
	}
	if !sawDepth {
		t.Error("unscheduled flush_end missing the queue_depth attribute")
	}
}
