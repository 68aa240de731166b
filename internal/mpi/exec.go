// Rank scheduler: one way to wait.
//
// Every MPI rank is its own goroutine, as in MPI/ULFM every rank is its
// own thread of control, and the Go scheduler runs them. Every path that
// blocks a rank on another rank's progress — a collective rendezvous, a
// mailbox receive, the Fenix spare wait and repair rendezvous — follows
// one discipline. The waiter registers itself under the lock that owns
// the condition it waits for, unlocks, and parks on its own one-slot
// resume channel (Proc.Park). The waker deregisters the waiter under the
// same lock and wakes it (Proc.Wake, or wakeWaiters for a completed
// collective's waiter list), under that lock or right after releasing
// it, so that the woken rank does not queue on a lock its waker still
// holds. Because registration and deregistration share a lock, a wake-up
// cannot fall between the waiter's last check and its park: either the
// waker finds it registered, or the waiter sees the new state before
// registering. Each registration is consumed by exactly one wake, so the
// one-slot resume channel never blocks a waker.
//
// Determinism does not depend on the host schedule: it changes only the
// wall-clock order in which rank segments execute, and every simulation
// outcome is a function of virtual clocks and per-rank program order
// (DESIGN.md §10). The chaos replay tests pin this across GOMAXPROCS.
package mpi

import "sync"

// Park blocks the calling rank until a waker wakes it. The caller must
// first register p, under the lock that owns the condition it waits for,
// where exactly one waker will find it; between registering and Park the
// rank must not wait on anything else. Collectives, mailbox receives and
// the Fenix spare wait and repair rendezvous all block this way.
func (p *Proc) Park() { <-p.resume }

// Wake resumes a parked (or about to park) rank. The caller must have
// deregistered p under the lock p registered under, so that every Park is
// matched by exactly one Wake. Safe to call with that lock held: the send
// on the one-slot resume channel never blocks.
func (p *Proc) Wake() { p.resume <- struct{}{} }

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
