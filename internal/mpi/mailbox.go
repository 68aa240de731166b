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
// blocking (eager protocol); receivers block on the condition variable
// until a matching message arrives, the sender dies, or the communicator
// is revoked.
//
// Queue blocks are pooled: a queue drained by receive is reset and parked
// on a freelist for the next burst on any key, so steady-state
// point-to-point traffic (for example the per-step halo exchanges of a
// Cartesian stencil) does not allocate a fresh slice per message.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    map[msgKey]*msgQueue
	free []*msgQueue
}

func (m *mailbox) init() {
	m.cond = sync.NewCond(&m.mu)
	m.q = make(map[msgKey]*msgQueue)
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

// deliver enqueues a message and wakes any blocked receivers.
func (m *mailbox) deliver(key msgKey, msg message) {
	m.mu.Lock()
	q := m.getQueueLocked(key)
	q.msgs = append(q.msgs, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// wakeAll wakes all blocked receivers so they re-check failure/revocation
// state. The broadcast happens under m.mu: a receiver evaluates giveUp and
// enters cond.Wait without releasing m.mu in between, so holding it here
// guarantees the receiver either sees the new state in giveUp or is
// already waiting when the broadcast fires. Callers must not hold
// world.mu (receivers take it inside giveUp while holding m.mu).
func (m *mailbox) wakeAll() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// receive blocks until a message matching key is available or giveUp
// returns a non-nil error (sender died, communicator revoked). giveUp is
// evaluated while holding the mailbox lock; state changes that could make
// it fire (markDead, Revoke, depart) publish their state first and then
// call wakeAll, which broadcasts under the same lock, so a receiver
// between giveUp and cond.Wait cannot miss the wake-up.
//
// p is the receiving process: under ExecPool the receiver yields its
// execution slot before the first cond.Wait — a rank blocked on a
// message must not pin one of the GOMAXPROCS slots, or a world of
// blocked receivers would starve the senders they wait on — and
// reacquires a slot after the wait resolves. The post-broadcast re-check
// of the queue runs without a slot; it is a bounded map probe, not
// simulation progress.
func (m *mailbox) receive(p *Proc, key msgKey, giveUp func() error) (message, error) {
	m.mu.Lock()
	yielded := false
	var msg message
	var err error
	for {
		if q, ok := m.q[key]; ok && q.head < len(q.msgs) {
			msg = q.msgs[q.head]
			q.msgs[q.head] = message{} // drop the payload reference
			q.head++
			if q.head == len(q.msgs) {
				q.head, q.msgs = 0, q.msgs[:0]
				delete(m.q, key)
				m.free = append(m.free, q)
			}
			break
		}
		if err = giveUp(); err != nil {
			break
		}
		if !yielded {
			yielded = p.yieldSlot()
		}
		m.cond.Wait()
	}
	m.mu.Unlock()
	if yielded {
		p.regainSlot()
	}
	return msg, err
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
