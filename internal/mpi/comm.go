package mpi

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Comm is a communicator: an ordered group of world ranks with its own rank
// numbering, message matching space, and revocation state. Comm values are
// shared between the participating rank goroutines; all methods take the
// calling Proc explicitly (the simulation analogue of the implicit calling
// process in MPI).
type Comm struct {
	world   *World
	id      int64
	group   []int // comm rank -> world rank
	index   map[int]int
	revoked atomic.Bool
	// departed maps world rank -> the virtual time at which that member
	// abandoned the communicator (its last MPI error, or its own Revoke).
	// Guarded by world.mu. Operations blocked on a departed member are
	// released with ErrRevoked at the departure stamp, which keeps failure
	// propagation deterministic in virtual time (see Comm.fail).
	departed map[int]float64
	// treeLeft0 holds the initial binomial-tree pending counters for this
	// group size, computed once at comm creation and copied into each
	// pooled rendezvous (see tree.go). Immutable.
	treeLeft0 []int32
}

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// ID returns the communicator's unique identifier (for tests and logs).
func (c *Comm) ID() int64 { return c.id }

// Rank returns p's rank within the communicator, or -1 if p is not a
// member.
func (c *Comm) Rank(p *Proc) int {
	if r, ok := c.index[p.rank]; ok {
		return r
	}
	return -1
}

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.group) {
		panic(fmt.Sprintf("mpi: comm rank %d out of range [0,%d)", commRank, len(c.group)))
	}
	return c.group[commRank]
}

// Group returns a copy of the comm-rank -> world-rank mapping.
func (c *Comm) Group() []int {
	cp := make([]int, len(c.group))
	copy(cp, c.group)
	return cp
}

// Revoked reports whether the communicator has been revoked.
func (c *Comm) Revoked() bool { return c.revoked.Load() }

// recvGiveUp decides whether a receive blocked on world rank srcW can
// still be satisfied. It returns a non-nil error — and the virtual time at
// which the failure becomes observable — once srcW has died (FailedError
// at the detection floor) or departed the communicator (ErrRevoked at the
// departure stamp). Both conditions are functions of srcW's own program
// order and virtual clock, so the receiver's outcome does not depend on
// real-time goroutine scheduling.
func (c *Comm) recvGiveUp(srcW int) (error, float64) {
	w := c.world
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead[srcW] {
		return newFailedError([]int{srcW}), w.detectionFloorLocked([]int{srcW})
	}
	if t, ok := c.departed[srcW]; ok {
		return ErrRevoked, t
	}
	return nil, 0
}

// hasDeparted reports whether world rank wr has departed this
// communicator.
func (c *Comm) hasDeparted(wr int) bool {
	c.world.mu.Lock()
	defer c.world.mu.Unlock()
	_, ok := c.departed[wr]
	return ok
}

// fail funnels a communicator operation's error through failMPI, first
// recording the caller's departure from this communicator: a ULFM error
// diverts the process into the resilience layer, so it will never again
// service operations here, and peers blocked on it can be released at a
// deterministic virtual time. Departure — not the real-time visibility of
// a revocation flag — is what makes failure propagation reproducible: a
// peer's pending operation completes against the departing rank's program
// order and virtual clock, never against the wall-clock moment a shared
// flag happened to be written. Communicators created after recovery are
// untouched: departure is scoped to the communicator the error surfaced
// on.
func (c *Comm) fail(p *Proc, err error) error {
	if err != nil && IsULFMError(err) && !c.world.abortOnFailure {
		c.depart(p)
	}
	return p.failMPI(err)
}

// depart records p's departure from the communicator at its current
// virtual clock and wakes blocked members so they observe it.
func (c *Comm) depart(p *Proc) {
	w := c.world
	w.mu.Lock()
	c.departLocked(p.rank, p.clock.Now())
	w.mu.Unlock()
	for _, wr := range c.group {
		w.procs[wr].mail.wakeAll()
	}
}

// departLocked records wr's departure at the given stamp and re-checks
// pending collectives on this communicator. Caller holds world.mu.
func (c *Comm) departLocked(wr int, stamp float64) {
	if c.departed == nil {
		c.departed = make(map[int]float64)
	}
	if _, done := c.departed[wr]; done {
		return
	}
	c.departed[wr] = stamp
	w := c.world
	for _, rv := range w.colls {
		if rv.comm != c {
			continue
		}
		w.accountDepartedLocked(rv, c.index[wr], stamp)
		if rv.completed {
			rv.wakeWaiters(w)
		}
	}
}

func (c *Comm) checkMember(p *Proc, op string) int {
	r := c.Rank(p)
	if r < 0 {
		panic(fmt.Sprintf("mpi: %s by non-member world rank %d on comm %d", op, p.rank, c.id))
	}
	return r
}

// Send transmits data to comm rank dst with the given tag. It is eager,
// buffered, and locally complete: Send does not block waiting for the
// matching Recv, and a send races no global failure state — it fails fast
// only on this process's own knowledge, with FailedError once this process
// has already observed the destination's death, or ErrRevoked once it has
// itself departed the communicator (its last MPI error, or its own
// Revoke). A send to a peer that failed without this process knowing
// completes locally and the failure surfaces at the next completion point,
// keeping every operation's outcome a function of virtual time and program
// order only.
func (c *Comm) Send(p *Proc, dst, tag int, data []byte) error {
	return c.SendSized(p, dst, tag, data, len(data))
}

// SendSized is Send with the cost model charged for simBytes instead of the
// real buffer length, used when a small real buffer stands in for
// paper-scale data (see kokkos.View.SimBytes).
func (c *Comm) SendSized(p *Proc, dst, tag int, data []byte, simBytes int) error {
	me := c.checkMember(p, "Send")
	dstW := c.WorldRank(dst)
	if p.obsDead[dstW] {
		p.waitForDetection([]int{dstW})
		return c.fail(p, newFailedError([]int{dstW}))
	}
	if c.hasDeparted(p.rank) {
		return p.failMPI(ErrRevoked)
	}
	cost := p.congest(p.world.machine.TransferTime(simBytes))
	p.clock.Advance(cost)
	p.rec.Add(trace.AppMPI, cost)

	l := p.msglogOn(c)
	lkey := p2pKey{src: me, dst: dst, tag: tag}
	seq := -1
	if l != nil {
		seq = p.logSend[lkey]
		if seq < l.p2pLen(lkey) {
			// Replay: this message was delivered and logged by a previous
			// incarnation of this program point; suppress the duplicate.
			p.bumpSend(lkey, seq)
			p.noteReplay("send", dst, tag)
			return nil
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.world.procs[dstW].mail.deliver(
		msgKey{comm: c.id, src: p.rank, tag: tag},
		message{data: cp, arriveAt: p.clock.Now(), seq: seq},
	)
	if l != nil {
		// Deliver before append: a receiver that sees the log entry is
		// guaranteed the mailbox copy exists too.
		l.AppendP2P(lkey, data, simBytes, p.clock.Now())
		p.bumpSend(lkey, seq)
		p.Event(obs.LayerMPI, obs.EvMsgLogged, obs.KV("peer", dst), obs.KV("tag", tag), obs.KV("bytes", simBytes))
		p.world.obs.Registry().Counter(obs.MMsgLogged).Inc()
		p.msglogGauges(l)
	}
	return nil
}

// bumpSend advances the send cursor for lkey past seq.
func (p *Proc) bumpSend(lkey p2pKey, seq int) {
	if p.logSend == nil {
		p.logSend = make(map[p2pKey]int)
	}
	p.logSend[lkey] = seq + 1
}

// noteReplay emits the replay event + counter for one suppressed/served
// operation.
func (p *Proc) noteReplay(kind string, peer, tag int) {
	p.Event(obs.LayerMPI, obs.EvMsgReplayed, obs.KV("kind", kind), obs.KV("peer", peer), obs.KV("tag", tag))
	p.world.obs.Registry().Counter(obs.MMsgReplayed).Inc()
}

// Recv blocks until a message with the given tag from comm rank src
// arrives. It fails with FailedError if the sender dies before a matching
// message is available, or ErrRevoked once the sender has departed the
// communicator (sends are eager, so a message posted before the sender's
// death or departure is always drained first).
func (c *Comm) Recv(p *Proc, src, tag int) ([]byte, error) {
	me := c.checkMember(p, "Recv")
	srcW := c.WorldRank(src)
	start := p.clock.Now()
	key := msgKey{comm: c.id, src: srcW, tag: tag}
	l := p.msglogOn(c)
	lkey := p2pKey{src: src, dst: me, tag: tag}
	if l != nil {
		seq := p.logRecv[lkey]
		if e, ok := l.p2pAt(lkey, seq); ok {
			return c.recvFromLog(p, l, key, lkey, seq, e, start), nil
		}
	}
	var release float64
	msg, err := p.mail.receive(p, key, func() error {
		e, rel := c.recvGiveUp(srcW)
		release = rel
		return e
	})
	if err != nil {
		// Failures only become observable at their virtual release time.
		p.clock.AdvanceTo(release)
		// Account the blocked time up to failure detection.
		p.rec.Add(trace.AppMPI, p.clock.Now()-start)
		return nil, c.fail(p, err)
	}
	p.clock.AdvanceTo(msg.arriveAt)
	recvOverhead := p.congest(p.world.machine.NetLatency)
	p.clock.Advance(recvOverhead)
	p.rec.Add(trace.AppMPI, p.clock.Now()-start)
	if l != nil {
		p.bumpRecv(l, lkey, msg.seq)
	}
	return msg.data, nil
}

// recvFromLog serves one logged message: it consumes the live mailbox copy
// (if the original send delivered on this communicator), reproduces the
// logged arrival time, and returns a fresh copy of the payload.
func (c *Comm) recvFromLog(p *Proc, l *MsgLog, key msgKey, lkey p2pKey, seq int, e p2pEntry, start float64) []byte {
	p.mail.dropThrough(key, seq)
	p.clock.AdvanceTo(e.arriveAt)
	recvOverhead := p.congest(p.world.machine.NetLatency)
	p.clock.Advance(recvOverhead)
	p.rec.Add(trace.AppMPI, p.clock.Now()-start)
	if replay := l.noteConsumed(lkey, seq); replay {
		p.noteReplay("recv", lkey.src, lkey.tag)
	}
	if p.logRecv == nil {
		p.logRecv = make(map[p2pKey]int)
	}
	p.logRecv[lkey] = seq + 1
	out := make([]byte, len(e.data))
	copy(out, e.data)
	return out
}

// bumpRecv advances the receive cursor for lkey after a live mailbox
// consumption of the message carrying absolute sequence seq (-1 when the
// send was unlogged, in which case the cursor simply increments).
func (p *Proc) bumpRecv(l *MsgLog, lkey p2pKey, seq int) {
	if p.logRecv == nil {
		p.logRecv = make(map[p2pKey]int)
	}
	if seq < 0 {
		seq = p.logRecv[lkey]
		p.logRecv[lkey] = seq + 1
		return
	}
	l.noteConsumed(lkey, seq)
	p.logRecv[lkey] = seq + 1
}

// Sendrecv performs a combined send to dst and receive from src, the idiom
// used by halo exchanges and buddy checkpointing. Sends are buffered, so
// paired Sendrecv calls cannot deadlock.
func (c *Comm) Sendrecv(p *Proc, dst, sendTag int, data []byte, src, recvTag int) ([]byte, error) {
	if err := c.Send(p, dst, sendTag, data); err != nil {
		return nil, err
	}
	return c.Recv(p, src, recvTag)
}

// SendrecvSized is Sendrecv with the send cost charged for simBytes.
func (c *Comm) SendrecvSized(p *Proc, dst, sendTag int, data []byte, simBytes, src, recvTag int) ([]byte, error) {
	if err := c.SendSized(p, dst, sendTag, data, simBytes); err != nil {
		return nil, err
	}
	return c.Recv(p, src, recvTag)
}

// Revoke marks the communicator revoked at all processes (ULFM
// MPI_Comm_revoke): every pending and future operation on it fails with
// ErrRevoked. Revocation is what turns one rank's local failure knowledge
// into a single global control-flow exit point.
//
// Mechanically, Revoke records the revoker's own departure from the
// communicator: the revoker will never again service operations on it, so
// peers blocked on the revoker release with ErrRevoked at the revocation
// stamp, and in a failure flow every other member departs deterministically
// through its own MPI error (Comm.fail). Pending operations are thus
// released by member departures — anchored in virtual time — rather than by
// the wall-clock moment the revocation flag becomes visible.
func (c *Comm) Revoke(p *Proc) {
	c.checkMember(p, "Revoke")
	if !c.revoked.Swap(true) {
		// The counter records the revocation once per communicator.
		p.world.obs.Registry().Counter(obs.MRevokes).Inc()
	}
	// Every caller pays its own propagation cost (a reliable broadcast
	// across the comm), emits its own mpi.revoke event, and records its own
	// departure. Attributing any of these to "the first caller to reach the
	// flag" would stamp them with whichever goroutine won the real-time
	// race, breaking replay determinism; per-caller emission keeps each
	// rank's revocation anchored to its own deterministic clock (and is
	// what ULFM semantics look like at the member: each process observes
	// the revocation on its own call path).
	p.Event(obs.LayerMPI, obs.EvRevoke, obs.KV("comm", c.id), obs.KV("size", len(c.group)))
	cost := p.world.machine.CollectiveTime(len(c.group), 4)
	p.clock.Advance(cost)
	p.rec.Add(trace.AppMPI, cost)

	c.world.mu.Lock()
	c.departLocked(p.rank, p.clock.Now())
	c.world.mu.Unlock()
	for _, wr := range c.group {
		c.world.procs[wr].mail.wakeAll()
	}
}
