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
// time at which the message is available at the receiver. seq is the
// message's absolute sequence number in the sender-based message log's
// stream for this (sender, receiver, tag), or -1 when the send was not
// logged; a receiver that serves the same message from the log drops the
// mailbox copy by seq (dropThrough).
type message struct {
	data     []byte
	arriveAt float64
	seq      int
}

// msgQueue is one matching queue: a slice consumed from head so dequeue
// never reallocates, recycled through the mailbox freelist once drained.
type msgQueue struct {
	head int
	msgs []message
}

// mailbox is a process's incoming message store. Senders enqueue without
// blocking (eager protocol). Only the owning rank receives, so at most one
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
// returns a non-nil error (sender died, communicator revoked). The queue
// and giveUp are checked under m.mu, and the receiver registers as waiter
// under the same lock before it parks, so a deliver or wakeAll that lands
// after the checks finds it registered and cannot be lost. p is the
// receiving process, the mailbox's owner; once woken it re-checks.
func (m *mailbox) receive(p *Proc, key msgKey, giveUp func() error) (message, error) {
	for {
		m.mu.Lock()
		if q, ok := m.q[key]; ok && q.head < len(q.msgs) {
			msg := q.msgs[q.head]
			q.msgs[q.head] = message{} // drop the payload reference
			q.head++
			if q.head == len(q.msgs) {
				q.head, q.msgs = 0, q.msgs[:0]
				delete(m.q, key)
				m.free = append(m.free, q)
			}
			m.mu.Unlock()
			return msg, nil
		}
		if err := giveUp(); err != nil {
			m.mu.Unlock()
			return message{}, err
		}
		m.waiter, m.want = p, key
		m.mu.Unlock()
		p.Park()
	}
}

// dropThrough removes queued messages for key whose log sequence number is
// <= maxSeq. When a receiver serves a message from the sender-based log,
// the live mailbox copy (delivered by the original send on the same
// communicator) must be consumed too, or it would satisfy a later receive
// out of order. Messages with seq -1 (unlogged sends) are never dropped.
func (m *mailbox) dropThrough(key msgKey, maxSeq int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q, ok := m.q[key]
	if !ok {
		return
	}
	for q.head < len(q.msgs) && q.msgs[q.head].seq >= 0 && q.msgs[q.head].seq <= maxSeq {
		q.msgs[q.head] = message{}
		q.head++
	}
	if q.head == len(q.msgs) {
		q.head, q.msgs = 0, q.msgs[:0]
		delete(m.q, key)
		m.free = append(m.free, q)
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
