// Rank scheduler: one way to wait.
//
// Every path that blocks a rank on another rank's progress — a
// collective rendezvous, a mailbox receive, the Fenix spare wait and
// repair rendezvous — follows one discipline. The waiter registers itself
// under the lock that owns the condition it waits for, unlocks, and parks
// on its own one-slot resume channel (Proc.Park). The waker deregisters
// the waiter under the same lock and hands it to the world scheduler
// (Proc.Wake, or wakeAll for a completed collective's waiter list),
// under that lock or right after releasing it, so that the woken rank
// does not queue on a lock its waker still holds. Because registration
// and deregistration share a lock, a wake-up cannot fall between the
// waiter's last check and its park: either the waker finds it registered,
// or the waiter sees the new state before registering. Each registration
// is consumed by exactly one wake, so the one-slot resume channel never
// blocks a waker.
//
// The scheduler is the same in both execution modes; only its slot count
// differs:
//
//   - ExecGoroutine has unbounded slots: every rank always holds one, a
//     wake is a direct send on the resume channel, and giving up a slot
//     costs nothing. Ranks run as free goroutines under the Go scheduler,
//     as in MPI where every rank is a thread of control.
//   - ExecPool has K = GOMAXPROCS slots: at most K ranks run at once, a
//     parking rank hands its slot to the next ready rank, and a wake with
//     no free slot joins a FIFO ready queue. Host cost is bounded by
//     GOMAXPROCS, not world size: a completed world-sized collective makes
//     K ranks runnable, not every member.
//
// A rank that holds a slot and only computes (including the kokkos
// parallel-region helper goroutines, which never touch simulation state)
// cannot deadlock the pool, only keep its slot busy, which is the pool
// working as intended.
//
// Determinism is unaffected by construction: the slot count changes only
// the wall-clock order in which rank segments execute, and every
// simulation outcome is a function of virtual clocks and per-rank program
// order (DESIGN.md §10). The exec-equivalence and replay tests pin this.
package mpi

import (
	"fmt"
	"runtime"
	"sync"
)

// ExecMode selects how rank bodies are scheduled onto the host.
type ExecMode int

const (
	// ExecGoroutine (the default) is the rank scheduler with unbounded
	// slots: every rank is a free-running goroutine under the Go
	// scheduler, and a wake-up is a direct send to the parked rank.
	ExecGoroutine ExecMode = iota
	// ExecPool is the rank scheduler with GOMAXPROCS execution slots: at
	// most that many ranks are runnable at once, blocked ranks cost the
	// host scheduler nothing, and wake-ups beyond the free slots are FIFO
	// continuation enqueues.
	ExecPool
)

// String names the execution mode (flag values and logs).
func (m ExecMode) String() string {
	switch m {
	case ExecGoroutine:
		return "goroutine"
	case ExecPool:
		return "pool"
	}
	return fmt.Sprintf("ExecMode(%d)", int(m))
}

// ParseExecMode parses an execution mode name ("goroutine" or "pool").
// The empty string selects ExecGoroutine.
func ParseExecMode(s string) (ExecMode, error) {
	switch s {
	case "", "goroutine":
		return ExecGoroutine, nil
	case "pool":
		return ExecPool, nil
	}
	return ExecGoroutine, fmt.Errorf("mpi: unknown exec mode %q (want goroutine or pool)", s)
}

// execPool is the world's rank scheduler. It is deliberately tiny: a
// count of free slots and a FIFO of parked ranks ready to run. Granting a
// slot is a single non-blocking send on the rank's resume channel. With
// unbounded slots (ExecGoroutine) wake and wakeAll send directly and
// release does nothing, so the default mode pays no scheduler lock. All
// bounded state is guarded by mu, a leaf lock whose critical sections are
// a few machine operations: it is never held across a park or a callback.
type execPool struct {
	unbounded bool // ExecGoroutine: every rank always holds a slot
	mu        sync.Mutex
	slots     int // free execution slots
	ready     []*Proc
	head      int // consume index into ready (amortized O(1) FIFO)
}

func newExecPool(m ExecMode, workers int) *execPool {
	if m != ExecPool {
		return &execPool{unbounded: true}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &execPool{slots: workers}
}

// popLocked removes and returns the next ready rank, or nil.
func (ep *execPool) popLocked() *Proc {
	if ep.head == len(ep.ready) {
		return nil
	}
	p := ep.ready[ep.head]
	ep.ready[ep.head] = nil
	ep.head++
	if ep.head == len(ep.ready) {
		ep.ready = ep.ready[:0]
		ep.head = 0
	}
	return p
}

// wake makes p ready to run: it is granted a free slot immediately or
// joins the FIFO. Safe to call with any simulation lock held (world.mu, a
// mailbox lock, Fenix's runtime lock): it only takes ep.mu and performs a
// non-blocking send.
func (ep *execPool) wake(p *Proc) {
	if ep.unbounded {
		p.resume <- struct{}{}
		return
	}
	ep.mu.Lock()
	if ep.slots > 0 {
		ep.slots--
		ep.mu.Unlock()
		p.resume <- struct{}{}
		return
	}
	ep.ready = append(ep.ready, p)
	ep.mu.Unlock()
}

// wakeAll is wake for a batch: completion of a world-sized collective
// readies O(world) parked members at once, and taking the scheduler lock
// per member would put O(world) lock acquisitions on the completing
// rank's critical path. Slots go to the front of the batch, the rest
// join the FIFO in order, all under one lock acquisition.
func (ep *execPool) wakeAll(ps []*Proc) {
	grant := len(ps)
	if !ep.unbounded {
		ep.mu.Lock()
		grant = min(ep.slots, len(ps))
		ep.slots -= grant
		ep.ready = append(ep.ready, ps[grant:]...)
		ep.mu.Unlock()
	}
	for _, p := range ps[:grant] {
		p.resume <- struct{}{}
	}
}

// release gives up the caller's slot, handing it to the next ready rank
// if one is queued. Never blocks.
func (ep *execPool) release() {
	if ep.unbounded {
		return
	}
	ep.mu.Lock()
	if p := ep.popLocked(); p != nil {
		ep.mu.Unlock()
		p.resume <- struct{}{}
		return
	}
	ep.slots++
	ep.mu.Unlock()
}

// Park gives up the calling rank's slot and blocks until a waker wakes
// it and the scheduler grants it a slot again. The caller must first
// register p, under the lock that owns the condition it waits for, where
// exactly one waker will find it; between registering and Park the rank
// must not wait on anything else. Collectives, mailbox receives and the
// Fenix spare wait and repair rendezvous all block this way.
func (p *Proc) Park() {
	p.world.pool.release()
	<-p.resume
}

// Wake hands a parked (or about to park) rank back to the scheduler. The
// caller must have deregistered p under the lock p registered under, so
// that every Park is matched by exactly one Wake. Safe to call with that
// lock held.
func (p *Proc) Wake() { p.world.pool.wake(p) }

// enter admits the rank into the scheduler at launch: it queues for a
// slot and blocks until granted one.
func (p *Proc) enter() {
	p.world.pool.wake(p)
	<-p.resume
}

// bufFree recycles collective payload buffers. It is a plain
// mutex-guarded freelist rather than a sync.Pool because Put-ing a slice
// into a sync.Pool boxes the slice header into an interface — one heap
// allocation per recycled buffer, which is exactly the allocation the
// recycling exists to remove. The mutex is a leaf lock: taken only here,
// never while holding it. Buffers whose capacity no longer fits are
// dropped on the floor and collected normally, so the list self-corrects
// when payload sizes grow.
type bufFree struct {
	mu  sync.Mutex
	f64 [][]float64
}

// payloadF64 takes a recycled float64 payload buffer of length n. The
// buffer is recycled by releaseOp once the op's last reference drops,
// which is safe because payload slices are only read while the
// rendezvous is live.
func (w *World) payloadF64(n int) []float64 {
	w.bufs.mu.Lock()
	if k := len(w.bufs.f64); k > 0 {
		buf := w.bufs.f64[k-1]
		w.bufs.f64[k-1] = nil
		w.bufs.f64 = w.bufs.f64[:k-1]
		w.bufs.mu.Unlock()
		if cap(buf) >= n {
			return buf[:n]
		}
		return make([]float64, n)
	}
	w.bufs.mu.Unlock()
	return make([]float64, n)
}

// recyclePayload returns a slot's contribution (taken via payloadF64) to
// the freelist.
func (w *World) recyclePayload(buf []float64) {
	if buf == nil {
		return
	}
	w.bufs.mu.Lock()
	w.bufs.f64 = append(w.bufs.f64, buf)
	w.bufs.mu.Unlock()
}
