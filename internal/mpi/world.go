// Package mpi is a simulated message-passing runtime with ULFM-style fault
// tolerance, standing in for MPI + MPI-ULFM on the paper's Cray XC40.
//
// Each rank is a goroutine owning a virtual clock. Point-to-point messages
// and collectives synchronize clocks according to the sim.Machine cost
// model. Process failure is injected by a rank calling Proc.Exit; all peers
// subsequently observe FailedError from operations involving the failed
// rank, exactly as ULFM raises MPI_ERR_PROC_FAILED. Fenix consumes three
// things from ULFM: those errors, the failure-detection latency, and
// Revoke; it builds its repaired communicator itself with NewComm.
//
// Two failure dispositions are supported, selected per job:
//
//   - fail-restart (abortOnFailure): any observed failure aborts the whole
//     job, and the launcher may relaunch it — classic checkpoint/restart.
//   - ULFM (the default): failures surface as errors for the process
//     resilience layer (Fenix) to handle online.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// World is one launch of an MPI job: a fixed set of processes and the
// global failure state. A World is created by RunJob; tests may construct
// one directly with NewWorld.
type World struct {
	cluster        *cluster.Cluster
	machine        *sim.Machine
	procs          []*Proc
	abortOnFailure bool
	// obs, when non-nil, receives structured observability events from
	// every layer running on this world. Set once before ranks start (via
	// SetObs); read-only afterwards.
	obs *obs.Recorder
	// injector, when non-nil, is consulted at named execution points (see
	// inject.go). Set once before ranks start; read-only afterwards.
	injector Injector
	// opPool recycles rendezvous state across collectives (tree.go).
	opPool sync.Pool
	// bufs recycles collective payload buffers (see exec.go).
	bufs bufFree
	// msglog, when non-nil, is the sender-based message log backing
	// localized recovery (msglog.go). Set via EnableMsgLog before ranks
	// start; nil keeps every hot path untouched.
	msglog *MsgLog

	mu     sync.Mutex
	dead   []bool
	deadAt []float64 // virtual death time per rank (valid where dead)
	nComm  int64
	colls  map[collKey]*rendezvous
	deadLs []int // world ranks, in failure order
	hooks  []func(worldRank int)
	// layer is the per-world state of the process-resilience layer above
	// (Fenix's runtime), installed once under mu by Layer.
	layer any

	commWorld *Comm
}

// RegisterDeathHook installs f to be called (outside the world lock) each
// time a process fails. The process-resilience layer uses this to re-check
// its repair rendezvous when a failure occurs mid-recovery.
func (w *World) RegisterDeathHook(f func(worldRank int)) {
	w.mu.Lock()
	w.hooks = append(w.hooks, f)
	w.mu.Unlock()
}

// Layer returns the per-world state of the process-resilience layer
// above, first installing init when none is set and init is non-nil: the
// first rank to offer a value wins and every later call returns it. The
// state lives exactly as long as the World, as Fenix's lives from
// Fenix_Init to Fenix_Finalize on one MPI_COMM_WORLD, so a finished job
// is collected whole.
func (w *World) Layer(init any) any {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.layer == nil {
		w.layer = init
	}
	return w.layer
}

// NewWorld creates a world of `ranks` processes placed round-robin across
// the cluster's nodes with `ranksPerNode` ranks per node. Every process
// clock starts at startTime (the virtual time at which the job launch
// completed). abortOnFailure selects fail-restart semantics.
func NewWorld(cl *cluster.Cluster, ranks, ranksPerNode int, abortOnFailure bool, seed uint64, startTime float64) *World {
	if ranks <= 0 {
		panic("mpi: rank count must be positive")
	}
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	w := &World{
		cluster:        cl,
		machine:        cl.Machine(),
		abortOnFailure: abortOnFailure,
		dead:           make([]bool, ranks),
		deadAt:         make([]float64, ranks),
		colls:          make(map[collKey]*rendezvous),
	}
	root := sim.NewRNG(seed)
	w.procs = make([]*Proc, ranks)
	for i := range w.procs {
		node := cl.Node((i / ranksPerNode) % cl.Size())
		w.procs[i] = newProc(w, i, node, root.Split(uint64(i)), startTime)
	}
	w.commWorld = w.newCommLocked(identityGroup(ranks))
	return w
}

func identityGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// SetObs installs the observability recorder. It must be called before any
// rank goroutine starts (RunJob does this); a nil recorder disables
// recording.
func (w *World) SetObs(r *obs.Recorder) { w.obs = r }

// Obs returns the world's observability recorder (possibly nil).
func (w *World) Obs() *obs.Recorder { return w.obs }

// EnableMsgLog installs a fresh sender-based message log (msglog.go). It
// must be called before any rank goroutine starts; without it, logging and
// replay are disabled and no hot path pays any cost.
func (w *World) EnableMsgLog() { w.msglog = NewMsgLog() }

// MsgLog returns the world's message log, or nil when disabled.
func (w *World) MsgLog() *MsgLog { return w.msglog }

// RegisterLineageComm marks c as part of the resilient lineage for the
// message log: traffic on it is recorded for localized recovery. The
// process resilience layer calls this for the initial resilient
// communicator and for every repaired successor. A no-op when the log is
// disabled; a width change (shrink compaction) disables the log.
func (w *World) RegisterLineageComm(c *Comm) {
	if w.msglog == nil || c == nil {
		return
	}
	if w.msglog.register(c) {
		c.logged.Store(true)
	}
}

// Size returns the number of processes in the world.
func (w *World) Size() int { return len(w.procs) }

// Machine returns the cost model.
func (w *World) Machine() *sim.Machine { return w.machine }

// Cluster returns the underlying cluster.
func (w *World) Cluster() *cluster.Cluster { return w.cluster }

// Proc returns process i (world rank i).
func (w *World) Proc(i int) *Proc {
	if i < 0 || i >= len(w.procs) {
		panic(fmt.Sprintf("mpi: proc %d out of range [0,%d)", i, len(w.procs)))
	}
	return w.procs[i]
}

// CommWorld returns the communicator spanning all processes
// (MPI_COMM_WORLD).
func (w *World) CommWorld() *Comm { return w.commWorld }

// NewComm creates a communicator over the given world ranks. It is the
// simulation analogue of MPI_Comm_create and is used by Fenix to build the
// resilient communicator excluding spare ranks.
func (w *World) NewComm(group []int) *Comm {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.newCommLocked(group)
}

func (w *World) newCommLocked(group []int) *Comm {
	cp := make([]int, len(group))
	copy(cp, group)
	idx := make(map[int]int, len(cp))
	for i, r := range cp {
		if r < 0 || r >= len(w.procs) {
			panic(fmt.Sprintf("mpi: comm group rank %d out of world range", r))
		}
		if _, dup := idx[r]; dup {
			panic(fmt.Sprintf("mpi: duplicate rank %d in comm group", r))
		}
		idx[r] = i
	}
	w.nComm++
	return &Comm{world: w, id: w.nComm, group: cp, index: idx, treeLeft0: buildTreeInit(len(cp))}
}

// isDead reports whether world rank r has failed.
func (w *World) isDead(r int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dead[r]
}

// DeadRanks returns the failed world ranks in failure order.
func (w *World) DeadRanks() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	cp := make([]int, len(w.deadLs))
	copy(cp, w.deadLs)
	return cp
}

// DetectionFloor returns the earliest virtual time at which the failures of
// the given world ranks are observable (death time plus detection latency;
// ranks still alive contribute nothing). The process resilience layer uses
// it to stamp repairs: a rebuild that disposed of a failure cannot complete
// before that failure was detectable.
func (w *World) DetectionFloor(ranks []int) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.detectionFloorLocked(ranks)
}

func (w *World) detectionFloorLocked(ranks []int) float64 {
	var floor float64
	for _, r := range ranks {
		if w.dead[r] && w.deadAt[r] > floor {
			floor = w.deadAt[r]
		}
	}
	return floor + w.machine.FailureDetectionLatency
}

// markDead records the failure of world rank r, completes every pending
// collective that involves it (waiters observe FailedError), and wakes all
// blocked receivers so they can re-check failure state. It must be called
// from rank r's own goroutine (the dying process), whose clock stamps the
// death time.
func (w *World) markDead(r int) {
	w.mu.Lock()
	if w.dead[r] {
		w.mu.Unlock()
		return
	}
	// Emitted from the dying rank's own goroutine, so its clock stamps the
	// virtual death time (the recorder has its own lock).
	w.procs[r].Event(obs.LayerMPI, obs.EvRankExit)
	w.dead[r] = true
	w.deadAt[r] = w.procs[r].clock.Now()
	w.deadLs = append(w.deadLs, r)
	if w.msglog != nil {
		w.msglog.hold(r, w.nComm)
	}
	for _, rv := range w.colls {
		if !rv.hasMember(r) {
			continue
		}
		w.accountDeadLocked(rv, rv.comm.index[r], w.deadAt[r])
		if rv.completed {
			rv.wakeWaiters()
		}
	}
	hooks := make([]func(int), len(w.hooks))
	copy(hooks, w.hooks)
	w.mu.Unlock()
	for _, p := range w.procs {
		p.mail.wakeAll()
	}
	for _, h := range hooks {
		h(r)
	}
}
