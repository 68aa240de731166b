// Package cluster models the simulated machine: compute nodes with local
// scratch storage (the memory-mapped folder VeloC uses for synchronous
// checkpoint copies), an interconnect, and a Lustre-like parallel file
// system whose aggregate bandwidth is shared by all concurrent writers.
//
// The PFS model reproduces the two effects the paper's evaluation hinges on:
//
//  1. A fixed number of filesystem management nodes caps aggregate flush
//     throughput, so N nodes flushing simultaneously each see ~1/N of it —
//     but this same cap bounds the total congestion checkpointing can
//     generate (Section VI-D1).
//  2. While a node's asynchronous flush is in flight, MPI operations issued
//     from that node are inflated by the machine's congestion factor,
//     reproducing the delayed application MPI calls the paper observes.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Cluster is a set of nodes sharing one parallel file system.
type Cluster struct {
	machine *sim.Machine
	nodes   []*Node
	pfs     *PFS
}

// New creates a cluster of n nodes using the given cost model.
func New(n int, machine *sim.Machine) *Cluster {
	if n <= 0 {
		panic("cluster: node count must be positive")
	}
	c := &Cluster{machine: machine, pfs: NewPFS(machine)}
	c.nodes = make([]*Node, n)
	for i := range c.nodes {
		c.nodes[i] = newNode(i, machine, c.pfs)
	}
	return c
}

// Machine returns the cluster's cost model.
func (c *Cluster) Machine() *sim.Machine { return c.machine }

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", i, len(c.nodes)))
	}
	return c.nodes[i]
}

// PFS returns the shared parallel file system.
func (c *Cluster) PFS() *PFS { return c.pfs }

// window is a half-open virtual-time interval [start, end).
type window struct{ start, end float64 }

func (w window) contains(t float64) bool { return t >= w.start && t < w.end }

// Node is one compute node. Node state persists across job relaunches on
// the same allocation, which is how VeloC scratch checkpoints survive a
// fail-restart recovery.
type Node struct {
	id      int
	machine *sim.Machine
	pfs     *PFS

	mu      sync.Mutex
	scratch map[string]stored
	flushes []window
	// Flush scheduling state (see flushsched.go). policy zero = unscheduled;
	// pending holds queued, not-yet-started flushes; flushSeq numbers
	// submissions (a last-resort queue tie-break only — queue order is
	// derived from virtual-time-deterministic request fields, never from
	// the wall-clock order in which racing ranks reached the scheduler).
	policy   FlushPolicy
	pending  []*pendingFlush
	flushSeq int
	// lastCommit remembers, per CoalesceKey, the most recent committed
	// flush (version and window start). FlushSubmit consults it to detect
	// the deep-skew reorder: a superseding submission arriving virtually at
	// or before a start that a virtually-later co-resident observer already
	// committed (see FlushRequest.OnReorder).
	lastCommit map[string]flushCommit
}

// stored is a scratch or PFS object: real contents plus the simulated size
// used by the cost model (experiments back paper-scale data with small real
// buffers; see kokkos.View.SimBytes).
type stored struct {
	data     []byte
	simBytes int
}

func newNode(id int, machine *sim.Machine, pfs *PFS) *Node {
	return &Node{id: id, machine: machine, pfs: pfs, scratch: make(map[string]stored)}
}

// ID returns the node index within its cluster.
func (n *Node) ID() int { return n.id }

// ScratchWrite stores data under key in node-local scratch and returns the
// virtual duration of the copy (a memory-bandwidth-bound memcpy). The caller
// charges this duration to its clock. Scratch takes ownership of data, as
// PFS.write does: the caller must never mutate it afterwards, because
// reads and node flushes hand out the same slice.
func (n *Node) ScratchWrite(key string, data []byte) float64 {
	return n.ScratchWriteSized(key, data, len(data))
}

// ScratchWriteSized is ScratchWrite with the cost model charged for
// simBytes instead of the real buffer length.
func (n *Node) ScratchWriteSized(key string, data []byte, simBytes int) float64 {
	n.mu.Lock()
	n.scratch[key] = stored{data: data, simBytes: simBytes}
	n.mu.Unlock()
	return n.machine.MemcpyTime(simBytes)
}

// ScratchRead returns the data stored under key and the virtual duration
// of the read, or ok=false if absent. The slice is the stored one, not a
// copy: callers must treat it as read-only.
func (n *Node) ScratchRead(key string) (data []byte, cost float64, ok bool) {
	n.mu.Lock()
	s, ok := n.scratch[key]
	n.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	return s.data, n.machine.MemcpyTime(s.simBytes), true
}

// ScratchSimBytesOf returns the cost-model size of the scratch entry under
// key, or ok=false if absent.
func (n *Node) ScratchSimBytesOf(key string) (simBytes int, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.scratch[key]
	return s.simBytes, ok
}

// ScratchDelete removes key from scratch storage.
func (n *Node) ScratchDelete(key string) {
	n.mu.Lock()
	delete(n.scratch, key)
	n.mu.Unlock()
}

// ScratchClear drops all scratch contents, modeling node memory loss. A
// node crash also takes the VeloC server's flush queue with it: queued
// flushes read from the scratch that was just lost, so they are discarded
// (their OnStart callbacks never fire; OnCancel fires with reason
// "scratch-lost", stamped at each request's submission time — the loss has
// no clock of its own here, and CrashNode has already settled the queue as
// of the crash instant before calling this).
func (n *Node) ScratchClear() {
	var fire []func()
	n.mu.Lock()
	n.scratch = make(map[string]stored)
	for i, e := range n.pending {
		if cb := e.req.OnCancel; cb != nil {
			at := e.enqueued
			fire = append(fire, func() { cb(at, "scratch-lost", 0) })
		}
		n.pending[i] = nil
	}
	n.pending = n.pending[:0]
	n.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

// FlushAsyncFor starts an asynchronous flush of the scratch entry under
// key to the parallel file system as pfsKey, beginning at virtual time
// start, and returns the virtual completion time. The caller does NOT
// block: the flush is performed by the simulated VeloC server thread; only
// the returned completion time matters for later reads and congestion.
// The write is attributed to owner (a world rank, or NoOwner): if the
// owner process fails before the completion time, PFS.FailPending marks
// the write incomplete and it never becomes readable — the flush was
// interrupted by the failure.
func (n *Node) FlushAsyncFor(key, pfsKey string, start float64, owner int) (end float64, err error) {
	n.mu.Lock()
	s, ok := n.scratch[key]
	n.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("cluster: flush of missing scratch key %q on node %d", key, n.id)
	}
	end = n.pfs.write(pfsKey, s.data, start, s.simBytes, owner, 0)
	n.mu.Lock()
	n.recordFlushLocked(start, end)
	n.mu.Unlock()
	return end, nil
}

// CongestedAt reports whether an asynchronous flush from this node is in
// flight at virtual time t. MPI operations issued while congested are
// inflated by the machine's CongestionFactor. The query first advances the
// node's flush scheduler to t, so queued flushes whose start times have
// been reached count as in flight.
func (n *Node) CongestedAt(t float64) bool {
	var fire []func()
	n.mu.Lock()
	n.advanceLocked(t, &fire)
	congested := n.openAtLocked(t) > 0
	n.mu.Unlock()
	for _, f := range fire {
		f()
	}
	return congested
}

// InFlightAt returns the number of asynchronous flushes from this node
// still in flight at virtual time t (the flush queue depth the
// observability layer samples). Like CongestedAt, it advances the
// scheduler to t first.
func (n *Node) InFlightAt(t float64) int {
	var fire []func()
	n.mu.Lock()
	n.advanceLocked(t, &fire)
	depth := n.openAtLocked(t)
	n.mu.Unlock()
	for _, f := range fire {
		f()
	}
	return depth
}

// NoOwner marks a PFS write not attributed to any process; it can never be
// interrupted by a failure.
const NoOwner = -1

// file is a PFS object: contents plus the virtual time it becomes readable.
// owner is the world rank whose server wrote it (NoOwner if unattributed);
// incomplete marks a write whose owner failed before availableAt — the
// file exists in the namespace but its contents are not trustworthy, so
// readers treat it as absent.
type file struct {
	data        []byte
	simBytes    int
	availableAt float64
	owner       int
	incomplete  bool
}

// PFS is the shared parallel file system. ends holds the completion times
// of recorded writes in ascending order: the congestion count is a suffix
// length found by binary search, and expired writes are a prefix.
type PFS struct {
	machine *sim.Machine

	mu    sync.Mutex
	files map[string]file
	ends  []float64
}

// NewPFS creates an empty parallel file system with the given cost model.
func NewPFS(machine *sim.Machine) *PFS {
	return &PFS{machine: machine, files: make(map[string]file)}
}

// Write stores data under key starting at virtual time start and returns
// the completion time. Effective bandwidth is the per-client cap reduced by
// sharing the aggregate cap with every other flush overlapping the start
// time, which is the management-node bottleneck.
func (p *PFS) Write(key string, data []byte, start float64) (end float64) {
	return p.WriteSizedFor(key, data, start, len(data), NoOwner)
}

// WriteSizedFor is Write with the cost model charged for simBytes instead
// of the real buffer length, and the write attributed to an owner world
// rank, allowing FailPending to invalidate it if the owner dies mid-write.
func (p *PFS) WriteSizedFor(key string, data []byte, start float64, simBytes int, owner int) (end float64) {
	return p.write(key, slices.Clone(data), start, simBytes, owner, 0)
}

// write stores data under key and takes ownership of it: the caller must
// never mutate data afterwards (node flushes pass their immutable scratch
// blob; the public wrappers pass a private copy). With share > 0 the
// effective bandwidth is the aggregate cap split share ways (capped per
// client): a scheduled flush of a synchronized checkpoint passes the
// number of ranks committing it. Otherwise the divisor is counted from
// already-recorded writes still in flight at start, which depends on the
// real-time order in which concurrent writers reach the PFS.
func (p *PFS) write(key string, data []byte, start float64, simBytes int, owner, share int) (end float64) {
	p.mu.Lock()
	defer p.mu.Unlock()

	concurrent := share
	if concurrent <= 0 {
		concurrent = 1 + len(p.ends) - p.endsAfterLocked(start)
	}
	bw := p.machine.PFSAggregateBandwidth / float64(concurrent)
	if bw > p.machine.PFSPerClientBandwidth {
		bw = p.machine.PFSPerClientBandwidth
	}
	end = start + p.machine.PFSLatency + float64(simBytes)/bw
	p.ends = slices.Insert(p.ends, p.endsAfterLocked(end), end)
	if len(p.ends) > 4096 {
		p.ends = p.ends[p.endsAfterLocked(start-1.0):]
	}

	if existing, ok := p.files[key]; !ok || existing.incomplete || end >= existing.availableAt {
		p.files[key] = file{data: data, simBytes: simBytes, availableAt: end, owner: owner}
	}
	return end
}

// endsAfterLocked returns the index of the first recorded completion time
// strictly after t. Caller holds p.mu.
func (p *PFS) endsAfterLocked(t float64) int {
	return sort.Search(len(p.ends), func(i int) bool { return p.ends[i] > t })
}

// FailPending marks every still-in-flight write owned by the given world
// rank incomplete, as of the owner's death time t: a write whose
// availability lies in the future was being performed by the owner's
// (now dead) node server and never finishes. Such files are invisible
// to Read/Exists/SimBytesOf; restore paths must fall back to an
// older complete version.
func (p *PFS) FailPending(owner int, t float64) {
	if owner == NoOwner {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, f := range p.files {
		if f.owner == owner && !f.incomplete && f.availableAt > t {
			f.incomplete = true
			p.files[key] = f
		}
	}
}

// Read returns the data stored under key. ready is the virtual time at
// which the read completes for a caller starting at time start: if the file
// is still being flushed the reader waits for availability, then pays the
// read latency and bandwidth cost. ok is false if the key does not exist.
// PFS files are immutable (write takes ownership), so the slice is the
// stored one, not a copy: callers must treat it as read-only.
func (p *PFS) Read(key string, start float64) (data []byte, ready float64, ok bool) {
	p.mu.Lock()
	f, ok := p.files[key]
	p.mu.Unlock()
	if !ok || f.incomplete {
		return nil, 0, false
	}
	begin := start
	if f.availableAt > begin {
		begin = f.availableAt
	}
	ready = begin + p.machine.PFSLatency + float64(f.simBytes)/p.machine.PFSReadBandwidth
	return f.data, ready, true
}

// SimBytesOf returns the cost-model size of the file under key, or
// ok=false if absent.
func (p *PFS) SimBytesOf(key string) (simBytes int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.files[key]
	return f.simBytes, ok && !f.incomplete
}

// Exists reports whether key is present (regardless of availability time)
// and the virtual time at which it becomes readable.
func (p *PFS) Exists(key string) (availableAt float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.files[key]
	return f.availableAt, ok && !f.incomplete
}

// Len returns the number of stored files (for tests).
func (p *PFS) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.files)
}

// SimBytes returns the cost-model footprint of all stored files, the
// persistent-storage cost of a checkpointing strategy.
func (p *PFS) SimBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, f := range p.files {
		total += f.simBytes
	}
	return total
}
