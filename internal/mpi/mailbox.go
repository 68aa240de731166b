package mpi

import "sync"

// msgKey addresses a mailbox queue: messages are matched by communicator,
// sending world rank, and tag, as in MPI point-to-point matching.
type msgKey struct {
	comm int64
	src  int
	tag  int
}

// message is an in-flight point-to-point payload. arriveAt is the virtual
// time at which the message is available at the receiver.
type message struct {
	data     []byte
	arriveAt float64
}

// msgQueue is one matching queue: a slice consumed from head so dequeue
// never reallocates, recycled through the mailbox freelist once drained.
type msgQueue struct {
	head int
	msgs []message
}

// mailbox is a process's incoming message store for unlogged traffic, and
// its one place to wait for any message: a logged send appends to its
// message-log stream instead and wakes the receiver here. Senders never
// block (eager protocol). Only the owning rank receives, so at most one
// receiver waits at a time: it registers itself as waiter, with the key
// it awaits, and parks until a matching message arrives, the sender dies,
// or the communicator is revoked.
//
// Queue blocks are pooled: a queue drained by receive is reset and parked
// on a freelist for the next burst on any key, so steady-state
// point-to-point traffic (for example the per-step halo exchanges of a
// Cartesian stencil) does not allocate a fresh slice per message.
type mailbox struct {
	mu     sync.Mutex
	q      map[msgKey]*msgQueue
	free   []*msgQueue
	waiter *Proc  // the parked receiver, or nil
	want   msgKey // the key waiter awaits
}

// getQueueLocked returns the queue for key, reusing a drained block from
// the freelist when one is available. Caller holds m.mu.
func (m *mailbox) getQueueLocked(key msgKey) *msgQueue {
	if q, ok := m.q[key]; ok {
		return q
	}
	var q *msgQueue
	if n := len(m.free); n > 0 {
		q = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		q = &msgQueue{}
	}
	m.q[key] = q
	return q
}

// deliver enqueues a message and wakes the receiver if it awaits key.
func (m *mailbox) deliver(key msgKey, msg message) {
	m.mu.Lock()
	q := m.getQueueLocked(key)
	q.msgs = append(q.msgs, msg)
	m.wakeUnlock(m.want == key)
}

// wake wakes the receiver if it awaits key, after a logged send's append.
// Callers must not hold a stream lock (receive takes one under m.mu).
func (m *mailbox) wake(key msgKey) {
	m.mu.Lock()
	m.wakeUnlock(m.want == key)
}

// wakeAll wakes the receiver, whatever key it awaits, so it re-checks
// failure/revocation state. State changes that could make its giveUp
// fire (markDead, Revoke, depart) publish their state first and then call
// wakeAll. Callers must not hold world.mu (receivers take it inside
// giveUp while holding m.mu).
func (m *mailbox) wakeAll() {
	m.mu.Lock()
	m.wakeUnlock(true)
}

// wakeUnlock deregisters the waiter, if any and if match, releases m.mu,
// and then wakes it: deregistering under the lock is what makes the wake
// exactly-once, and waking after the unlock keeps the woken receiver from
// contending for the lock its waker still holds. Caller holds m.mu.
func (m *mailbox) wakeUnlock(match bool) {
	p := m.waiter
	if p == nil || !match {
		m.mu.Unlock()
		return
	}
	m.waiter = nil
	m.mu.Unlock()
	p.Wake()
}

// receive blocks until a message matching key is available or giveUp
// returns a non-nil error (sender died, communicator revoked). On a logged
// stream (cur non-nil) the message is the stream's entry at cur, taken
// under the stream's lock, and replay reports whether a previous
// incarnation of the receiver already consumed it; otherwise it is the
// head of key's queue. The message and giveUp are checked under m.mu, and
// the receiver registers as waiter under the same lock before it parks,
// so a deliver, wake or wakeAll that lands after the checks finds it
// registered and cannot be lost. p is the receiving process, the
// mailbox's owner; once woken it re-checks.
func (m *mailbox) receive(p *Proc, key msgKey, cur *cursor, giveUp func() error) (msg message, replay bool, err error) {
	for {
		m.mu.Lock()
		ok := false
		if cur != nil {
			msg, replay, ok = cur.s.take(cur.n)
		} else if q := m.q[key]; q != nil && q.head < len(q.msgs) {
			msg, ok = q.msgs[q.head], true
			q.msgs[q.head] = message{} // drop the payload reference
			q.head++
			if q.head == len(q.msgs) {
				q.head, q.msgs = 0, q.msgs[:0]
				delete(m.q, key)
				m.free = append(m.free, q)
			}
		}
		if ok {
			m.mu.Unlock()
			return msg, replay, nil
		}
		if err := giveUp(); err != nil {
			m.mu.Unlock()
			return message{}, false, err
		}
		m.waiter, m.want = p, key
		m.mu.Unlock()
		p.Park()
	}
}

// pending reports the number of queued messages for key (for tests).
func (m *mailbox) pending(key msgKey) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q, ok := m.q[key]; ok {
		return len(q.msgs) - q.head
	}
	return 0
}
