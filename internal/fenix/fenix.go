// Package fenix reproduces the Fenix process-resilience runtime on top of
// the simulated ULFM layer in internal/mpi.
//
// Fenix provides two things (Section IV of the paper):
//
//  1. A resilient communicator that appears to keep a constant process pool:
//     some world ranks are held out as spares, blocked inside Fenix
//     initialization, and substituted in place for failed ranks during
//     communicator repair.
//  2. A single control-flow exit point for failures: in C Fenix attaches an
//     error handler that longjmps back to Fenix_Init. In Go, Run re-invokes
//     the application body after recovery; application code escapes to that
//     point either by returning the MPI error (Go style) or by wrapping
//     calls in Context.Check, which panics and is recovered by Run —
//     matching the "no error handling at 148 MPI call sites" property the
//     paper measures.
//
// Recovery protocol, as in the paper: the first rank to observe a failure
// revokes the resilient communicator (propagating the failure to every
// rank, including those blocked in collectives); every survivor then enters
// communicator repair, where failed ranks are replaced in place by spares;
// finally control returns to the top of the application body with roles
// updated (Survivor / Recovered) so the C/R layers can reason about state.
package fenix

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Role describes a rank's state after (re-)entering the application body,
// matching the rank states in the paper's Figure 2.
type Role int

const (
	// RoleInitial: first entry, no failure has occurred.
	RoleInitial Role = iota
	// RoleSurvivor: the rank lived through a failure; its memory is intact.
	RoleSurvivor
	// RoleRecovered: the rank is a spare substituted for a failed rank; its
	// memory is fresh and must be restored from checkpoints.
	RoleRecovered
)

func (r Role) String() string {
	switch r {
	case RoleInitial:
		return "initial"
	case RoleSurvivor:
		return "survivor"
	case RoleRecovered:
		return "recovered"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// ErrOutOfSpares is returned when a failure occurs and no spare ranks
// remain (and shrinking is not enabled).
var ErrOutOfSpares = errors.New("fenix: no spare ranks remain")

// ErrNoSurvivors is returned to blocked spares when every active rank has
// failed without finalizing: no survivor remains to run the recovery
// protocol, so the spares can never be activated and the job cannot
// complete.
var ErrNoSurvivors = errors.New("fenix: all active ranks failed with no survivor to run recovery")

// Config configures Fenix initialization.
type Config struct {
	// Spares is the number of world ranks held out of the resilient
	// communicator as replacements.
	Spares int
	// ShrinkOnExhaustion, when true, continues with a smaller resilient
	// communicator once spares run out instead of failing the job.
	ShrinkOnExhaustion bool
	// RehostReserve is the number of additional world ranks held out as a
	// second-line replacement pool behind Spares. When the regular spares
	// are exhausted, a failure that would otherwise shrink (or fail) the
	// job instead re-hosts the dead slot onto a reserve rank, keeping the
	// communicator width — and therefore logical-slot identity, which the
	// message log depends on — stable. Substitutions from the reserve are
	// surfaced as `rehosted` on the rebuild event.
	RehostReserve int
}

// Context is one rank's Fenix handle, valid for the duration of Run.
type Context struct {
	p    *mpi.Proc
	rt   *runtime
	role Role
	comm *mpi.Comm
	gen  int
	// logicalRank is the rank's identity within the resilient
	// communicator; a Recovered rank adopts its failed predecessor's.
	logicalRank int
}

// Proc returns the underlying MPI process.
func (c *Context) Proc() *mpi.Proc { return c.p }

// Comm returns the current resilient communicator. It changes across
// recoveries; application code must always obtain it from the Context.
func (c *Context) Comm() *mpi.Comm { return c.comm }

// Role returns the rank's role as of the most recent (re-)entry.
func (c *Context) Role() Role { return c.role }

// Generation counts completed repairs (0 before any failure).
func (c *Context) Generation() int { return c.gen }

// Rank returns the rank's logical ID within the resilient communicator.
func (c *Context) Rank() int { return c.logicalRank }

// Size returns the resilient communicator size.
func (c *Context) Size() int { return c.comm.Size() }

// fenixJump is the panic payload emitted by Check, the analogue of the
// ULFM error handler's longjmp back to Fenix_Init.
type fenixJump struct{ err error }

// Check inspects err: nil passes through, ULFM errors trigger the Fenix
// recovery jump (panic recovered by Run), and other errors are returned
// for the application to handle.
func (c *Context) Check(err error) error {
	if err == nil {
		return nil
	}
	if mpi.IsULFMError(err) {
		panic(fenixJump{err: err})
	}
	return err
}

// Body is the application code protected by Fenix: everything that in an
// MPI program would sit between Fenix_Init and Fenix_Finalize.
type Body func(ctx *Context) error

// Run initializes Fenix on process p and executes body under its
// protection, re-entering it after each recovered failure. Spare ranks
// block inside Run until they are activated as replacements (or until the
// job finalizes without needing them, in which case Run returns nil).
//
// All ranks of the world must call Run with an equivalent Config.
func Run(p *mpi.Proc, cfg Config, body Body) error {
	rt, err := runtimeFor(p.World(), cfg)
	if err != nil {
		return err
	}
	ctx, active, err := rt.initRank(p)
	if err != nil {
		return err
	}
	if !active {
		return nil // unused spare: job completed without it
	}
	for {
		err := runBody(ctx, body)
		if err == nil {
			rt.finalize(ctx)
			return nil
		}
		if !mpi.IsULFMError(err) {
			rt.finalize(ctx)
			return err
		}
		if rerr := rt.recover(ctx); rerr != nil {
			rt.finalize(ctx)
			return rerr
		}
	}
}

// runBody invokes body, converting Check's jump panic back into an error.
func runBody(ctx *Context, body Body) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if j, ok := r.(fenixJump); ok {
				err = j.err
				return
			}
			panic(r)
		}
	}()
	return body(ctx)
}

// runtime is the per-world Fenix coordinator shared by all rank
// goroutines. In a real deployment this state is distributed; the
// simulation centralizes it, with the corresponding communication costs
// charged through the machine model.
type runtime struct {
	world *mpi.World
	cfg   Config

	mu        sync.Mutex
	comm      *mpi.Comm // current resilient communicator
	gen       int
	spares    []int            // world ranks not yet activated
	slots     []int            // logical rank -> world rank
	waiters   map[int]*sparse  // parked spares by world rank
	finalized map[int]bool     // world ranks done with the body
	repairs   map[int]*repair  // generation -> in-progress repair
	imr       map[int]*imrSlot // logical rank -> IMR storage
	imrKeep   int
}

// jobDoneLocked reports whether every current member of the resilient
// communicator has finalized (or died): at that point unused spares will
// never be activated and can be released. Caller holds rt.mu.
func (rt *runtime) jobDoneLocked() bool {
	if rt.comm == nil {
		return false
	}
	deadSet := make(map[int]bool)
	for _, wr := range rt.world.DeadRanks() {
		deadSet[wr] = true
	}
	for _, wr := range rt.slots {
		if !rt.finalized[wr] && !deadSet[wr] {
			return false
		}
	}
	return true
}

// releaseSparesLocked wakes all parked spares with an inactive result
// carrying err (nil for a clean job completion). Caller holds rt.mu.
func (rt *runtime) releaseSparesLocked(err error) {
	for wr, sw := range rt.waiters {
		delete(rt.waiters, wr)
		sw.err = err
		sw.p.Wake()
	}
}

// memberDiedUnfinalizedLocked reports whether any current member of the
// resilient communicator died before finalizing its body — work that will
// never be repaired once no live member remains. Caller holds rt.mu.
func (rt *runtime) memberDiedUnfinalizedLocked() bool {
	deadSet := make(map[int]bool)
	for _, wr := range rt.world.DeadRanks() {
		deadSet[wr] = true
	}
	for _, wr := range rt.slots {
		if deadSet[wr] && !rt.finalized[wr] {
			return true
		}
	}
	return false
}

// sparse is a parked spare's registration and the activation result its
// waker fills in before waking it. The spare applies syncTime/repairCost
// to its own clock (the completing survivor must not touch another
// goroutine's clock).
type sparse struct {
	p          *mpi.Proc
	ctx        *Context
	err        error
	syncTime   float64
	repairCost float64
}

// repair coordinates one communicator recovery.
type repair struct {
	gen      int
	arrivals map[int]float64 // world rank -> arrival clock
	waiters  []*mpi.Proc     // survivors parked until the repair completes
	done     bool

	newComm  *mpi.Comm
	newSlots []int
	syncTime float64
	err      error
}

// registry maps worlds to their Fenix runtime (created by the first rank
// to call Run).
var registry sync.Map // *mpi.World -> *runtime

func runtimeFor(w *mpi.World, cfg Config) (*runtime, error) {
	if cfg.Spares < 0 || cfg.RehostReserve < 0 || cfg.Spares+cfg.RehostReserve >= w.Size() {
		return nil, fmt.Errorf("fenix: %d spares + %d reserve invalid for world size %d",
			cfg.Spares, cfg.RehostReserve, w.Size())
	}
	rt := &runtime{
		world:     w,
		cfg:       cfg,
		waiters:   make(map[int]*sparse),
		finalized: make(map[int]bool),
		repairs:   make(map[int]*repair),
		imr:       make(map[int]*imrSlot),
		imrKeep:   2,
	}
	actual, loaded := registry.LoadOrStore(w, rt)
	got := actual.(*runtime)
	if loaded && (got.cfg.Spares != cfg.Spares || got.cfg.RehostReserve != cfg.RehostReserve) {
		return nil, fmt.Errorf("fenix: inconsistent spare counts across ranks (%d+%d vs %d+%d)",
			got.cfg.Spares, got.cfg.RehostReserve, cfg.Spares, cfg.RehostReserve)
	}
	if !loaded {
		// Re-evaluate pending repairs whenever a failure occurs: a rank
		// dying mid-recovery must not leave the repair waiting for it.
		w.RegisterDeathHook(func(wr int) {
			got.mu.Lock()
			// A dead spare can never be activated: prune it from the pool
			// and drop its waiter entry so repairs neither wait for its
			// registration nor substitute a corpse into the communicator.
			for i, sp := range got.spares {
				if sp == wr {
					got.spares = append(got.spares[:i], got.spares[i+1:]...)
					break
				}
			}
			delete(got.waiters, wr)
			for _, r := range got.repairs {
				got.tryCompleteRepairLocked(r)
			}
			if got.jobDoneLocked() {
				// Every member slot is finalized or dead, so blocked spares
				// can never be activated. If a member died without
				// finalizing there is no survivor left to run recovery:
				// fail the spares so the job reports the loss instead of
				// deadlocking (or silently succeeding with missing work).
				var err error
				if got.memberDiedUnfinalizedLocked() {
					err = ErrNoSurvivors
				}
				got.releaseSparesLocked(err)
			}
			got.mu.Unlock()
		})
	}
	return got, nil
}

// initCost is the virtual cost of Fenix initialization beyond the
// communicator split, in seconds.
const initCost = 10e-3

// initRank performs Fenix_Init for one rank. Members of the resilient
// communicator return immediately with an initial Context; spares block
// until activated or released.
func (rt *runtime) initRank(p *mpi.Proc) (*Context, bool, error) {
	rt.mu.Lock()
	if rt.comm == nil {
		n := rt.world.Size() - rt.cfg.Spares - rt.cfg.RehostReserve
		group := make([]int, n)
		for i := range group {
			group[i] = i
		}
		rt.slots = append([]int(nil), group...)
		// Reserve ranks sit behind the regular spares in the same pool;
		// substitution order makes them strictly second-line.
		for r := n; r < rt.world.Size(); r++ {
			rt.spares = append(rt.spares, r)
		}
		rt.comm = rt.world.NewComm(group)
		rt.world.RegisterLineageComm(rt.comm)
	}
	comm := rt.comm
	isSpare := comm.Rank(p) < 0

	if !isSpare {
		rt.mu.Unlock()
		p.ChargeTime(trace.ResilienceInit, initCost+p.Machine().CollectiveTime(rt.world.Size(), 8))
		p.Event(obs.LayerFenix, obs.EvFenixInit,
			obs.KV("role", "member"), obs.KV("logical_rank", comm.Rank(p)), obs.KV("spares", rt.cfg.Spares))
		return &Context{p: p, rt: rt, role: RoleInitial, comm: comm, logicalRank: comm.Rank(p)}, true, nil
	}

	if rt.jobDoneLocked() {
		// The members already finished; this spare will never be needed.
		rt.mu.Unlock()
		return nil, false, nil
	}
	rt.mu.Unlock()
	// Injection point preceding waiter registration: a spare killed here
	// models one lost while blocked in Fenix_Init. Because it has not yet
	// registered, no repair can have selected it; the death hook prunes it
	// from the spare pool, so repairs deterministically pass over it.
	p.Inject("fenix.spare_wait")
	rt.mu.Lock()
	if rt.jobDoneLocked() {
		rt.mu.Unlock()
		return nil, false, nil
	}
	act := &sparse{p: p}
	rt.waiters[p.Rank()] = act
	// A pending repair may have been waiting for this spare to register.
	for _, r := range rt.repairs {
		rt.tryCompleteRepairLocked(r)
	}
	rt.mu.Unlock()
	p.ChargeTime(trace.ResilienceInit, initCost+p.Machine().CollectiveTime(rt.world.Size(), 8))
	p.Event(obs.LayerFenix, obs.EvFenixInit, obs.KV("role", "spare"), obs.KV("spares", rt.cfg.Spares))

	// Park until a repair activates this spare or the job releases it;
	// the waker fills in act before waking.
	p.Park()
	if act.ctx == nil {
		return nil, false, act.err
	}
	p.Clock().AdvanceTo(act.syncTime)
	p.Recorder().AddRaw(trace.ResilienceInit, act.repairCost)
	p.Event(obs.LayerFenix, obs.EvFenixRoleChange,
		obs.KV("from", "spare"), obs.KV("to", RoleRecovered.String()),
		obs.KV("logical_rank", act.ctx.logicalRank), obs.KV("generation", act.ctx.gen))
	p.Obs().Registry().Counter(obs.MSparesActivated).Inc()
	// A kill here models a replacement process failing immediately after
	// activation — it is already a communicator member, so its death is a
	// fresh member failure the survivors must repair.
	p.Inject("fenix.spare_activate")
	return act.ctx, true, nil
}

// finalize marks a rank's body as complete. When every active rank has
// finalized, blocked spares are released.
func (rt *runtime) finalize(ctx *Context) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.finalized[ctx.p.Rank()] {
		return
	}
	rt.finalized[ctx.p.Rank()] = true
	// A rank finalizing can complete a pending repair (it is no longer an
	// expected participant) or finish the job entirely.
	for _, r := range rt.repairs {
		rt.tryCompleteRepairLocked(r)
	}
	if rt.jobDoneLocked() {
		rt.releaseSparesLocked(nil)
	}
}

// recover runs the Fenix failure-recovery protocol for one survivor:
// revoke, repair rendezvous, communicator substitution, clock sync.
func (rt *runtime) recover(ctx *Context) error {
	p := ctx.p

	// A kill here models a nested failure: a survivor dying on its way into
	// an in-progress rebuild. The repair rendezvous waits for every live
	// member's arrival, so this death is folded into the same repair.
	p.Inject("fenix.recover")

	// Propagate the failure: revoke the resilient communicator so every
	// rank blocked in an operation on it reaches its own recover call.
	ctx.comm.Revoke(p)

	rt.mu.Lock()
	gen := ctx.gen
	r, ok := rt.repairs[gen]
	if !ok {
		r = &repair{gen: gen, arrivals: make(map[int]float64)}
		rt.repairs[gen] = r
	}
	r.arrivals[p.Rank()] = p.Now()
	rt.tryCompleteRepairLocked(r)
	if r.done {
		rt.mu.Unlock()
	} else {
		r.waiters = append(r.waiters, p)
		rt.mu.Unlock()
		p.Park()
	}

	if r.err != nil {
		return r.err
	}
	waited := p.Clock().AdvanceTo(r.syncTime)
	p.Recorder().Add(trace.ResilienceInit, waited)
	ctx.comm = r.newComm
	ctx.role = RoleSurvivor
	ctx.gen = r.gen + 1
	ctx.logicalRank = r.newComm.Rank(p)
	p.Event(obs.LayerFenix, obs.EvFenixRoleChange,
		obs.KV("from", "member"), obs.KV("to", RoleSurvivor.String()),
		obs.KV("logical_rank", ctx.logicalRank), obs.KV("generation", ctx.gen))
	return nil
}

// tryCompleteRepairLocked completes the repair once every live,
// non-finalized member of the current resilient communicator has arrived.
// Caller holds rt.mu.
func (rt *runtime) tryCompleteRepairLocked(r *repair) {
	if r.gen != rt.gen {
		return
	}
	deadSet := make(map[int]bool)
	for _, wr := range rt.world.DeadRanks() {
		deadSet[wr] = true
	}
	var expected []int
	for _, wr := range rt.comm.Group() {
		if !deadSet[wr] && !rt.finalized[wr] {
			expected = append(expected, wr)
		}
	}
	if len(expected) == 0 {
		return
	}
	maxClock := 0.0
	for _, wr := range expected {
		t, ok := r.arrivals[wr]
		if !ok {
			return
		}
		if t > maxClock {
			maxClock = t
		}
	}

	// Count failed slots and make sure every spare we are about to
	// activate has registered its waiter: the repair must not outrun the
	// spares still blocking into Fenix initialization.
	needed := 0
	var deadMembers []int
	for _, wr := range rt.slots {
		if deadSet[wr] {
			needed++
			deadMembers = append(deadMembers, wr)
		}
	}
	// A repair cannot complete before every death it disposes of was
	// detectable. Survivor arrivals usually dominate (they waited out the
	// detection latency before revoking), but a member that dies mid-repair
	// — a nested failure folded into this rebuild — can die after every
	// survivor arrived, and the rebuild stamp must not precede it.
	if floor := rt.world.DetectionFloor(deadMembers); floor > maxClock {
		maxClock = floor
	}
	avail := len(rt.spares)
	if avail > needed {
		avail = needed
	}
	for _, sp := range rt.spares[:avail] {
		if _, waiting := rt.waiters[sp]; !waiting {
			return // spare not yet blocked in init; its arrival re-triggers us
		}
	}

	// Build the new slot map, substituting spares for failed slots. A
	// substitution drawn from the rehost reserve (world ranks behind the
	// regular spares) counts as a re-host: same mechanism, but it is the
	// pool that exists specifically to avoid compaction.
	reserveStart := rt.world.Size() - rt.cfg.RehostReserve
	newSlots := append([]int(nil), rt.slots...)
	var activated []int // logical ranks filled by spares
	var shrunkOut []int
	rehosted := 0
	for slot, wr := range newSlots {
		if !deadSet[wr] {
			continue
		}
		if len(rt.spares) > 0 {
			sp := rt.spares[0]
			rt.spares = rt.spares[1:]
			newSlots[slot] = sp
			activated = append(activated, slot)
			if sp >= reserveStart {
				rehosted++
			}
		} else if rt.cfg.ShrinkOnExhaustion {
			shrunkOut = append(shrunkOut, slot)
		} else {
			r.err = ErrOutOfSpares
			rt.gen++
			r.finishLocked()
			// The repairs entry is deliberately KEPT: survivors racing into
			// recover for this generation must find the failed, done repair
			// rather than create a fresh one that can never complete.
			// Release blocked spares (none remain, but be thorough) and
			// fail them too.
			rt.releaseSparesLocked(ErrOutOfSpares)
			return
		}
	}
	if len(shrunkOut) > 0 {
		compact := newSlots[:0:0]
		for slot, wr := range newSlots {
			if !containsInt(shrunkOut, slot) {
				compact = append(compact, wr)
			}
		}
		newSlots = compact
	}

	syncTime := maxClock + rt.world.Machine().RepairTime(len(newSlots))
	newComm := rt.world.NewComm(newSlots)
	if len(shrunkOut) > 0 {
		// Compaction changes logical-slot identity: the message log's
		// slot-keyed streams are meaningless, so localized recovery
		// degrades to global rollback from here on.
		rt.world.MsgLog().Disable()
	} else {
		rt.world.RegisterLineageComm(newComm)
	}

	rt.slots = newSlots
	rt.comm = newComm
	rt.gen++
	delete(rt.repairs, r.gen)

	r.newComm = newComm
	r.newSlots = newSlots
	r.syncTime = syncTime

	// One world-level rebuild record per completed repair (rank -1: the
	// repair is a collective outcome, not one rank's act), stamped with the
	// post-repair synchronization time.
	if rec := rt.world.Obs(); rec.Enabled() {
		if len(shrunkOut) > 0 {
			// Spare-pool exhaustion compacted the communicator: surface the
			// implicit MPIX_Comm_shrink the rebuild performed, as a single
			// world-level event (rank -1).
			rec.Emit(syncTime, -1, obs.LayerMPI, obs.EvShrink,
				obs.KV("from_size", len(newSlots)+len(shrunkOut)),
				obs.KV("to_size", len(newSlots)))
			rec.Registry().Counter(obs.MShrinks).Inc()
		}
		rec.Emit(syncTime, -1, obs.LayerFenix, obs.EvFenixRebuild,
			obs.KV("generation", rt.gen),
			obs.KV("replaced", len(activated)),
			obs.KV("rehosted", rehosted),
			obs.KV("shrunk", len(shrunkOut)),
			obs.KV("size", len(newSlots)))
		rec.Registry().Counter(obs.MRebuilds).Inc()
		if rehosted > 0 {
			rec.Registry().Counter(obs.MRehosts).Add(float64(rehosted))
		}
		rec.Registry().Counter(obs.MFailuresSurvived).Add(float64(len(activated) + len(shrunkOut)))
	}

	// Activate the substituted spares.
	for _, slot := range activated {
		wr := newSlots[slot]
		sw, ok := rt.waiters[wr]
		if !ok {
			panic(fmt.Sprintf("fenix: spare %d activated but not waiting", wr))
		}
		delete(rt.waiters, wr)
		sw.ctx = &Context{
			p:           sw.p,
			rt:          rt,
			role:        RoleRecovered,
			comm:        newComm,
			gen:         rt.gen,
			logicalRank: slot,
		}
		sw.syncTime = syncTime
		sw.repairCost = rt.world.Machine().RepairTime(len(newSlots))
		sw.p.Wake()
	}

	r.finishLocked()
}

// finishLocked marks r done and wakes the survivors parked on it. Caller
// holds rt.mu.
func (r *repair) finishLocked() {
	r.done = true
	for _, p := range r.waiters {
		p.Wake()
	}
	r.waiters = nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// SpareCount returns the number of unused spares remaining (for tests).
func SpareCount(p *mpi.Proc) int {
	v, ok := registry.Load(p.World())
	if !ok {
		return 0
	}
	rt := v.(*runtime)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.spares)
}
