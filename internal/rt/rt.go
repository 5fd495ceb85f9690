// Package rt is sfsrt, the concurrent wall-clock scheduling runtime: the
// first step from reproducing the paper inside a deterministic simulation
// (internal/machine) to a system that arbitrates real load.
//
// A Runtime owns a pool of worker goroutines, one per scheduled CPU, that
// execute real submitted tasks (closures, request handlers). Every dispatch
// decision is made by a sched.Scheduler — internal/core's SFS by default,
// any policy (SFQ, time sharing, stride, BVT, lottery, hierarchical SFS) via
// Config.Policy. Where the simulated machine charges scripted quantum
// lengths, the runtime charges the *measured* monotonic-clock runtime of
// each task slice, read from a pluggable Clock.
//
// # Sharded dispatch
//
// By default (Config.Sharding.Shards ≤ 1) one central lock serializes every
// dispatch, charge and wakeup, exactly as the paper's kernel serializes
// scheduling under the run queue lock (§3.1). Config.Sharding.Shards > 1
// splits the machine into independent per-CPU runqueues instead: each shard
// owns a private scheduler instance (built by Config.Policy), a private lock,
// a contiguous block of the worker pool and the set of tenants bound to it —
// the runtime keeps no other list of its tenants — and tenants carry their
// weight as a sub-share of the shard they are assigned to. A rebalancer (every
// DefaultRebalanceEvery in concurrent mode, Rebalance in Manual mode)
// migrates tenants between shards so every shard's total weight stays
// proportional to its processor count, which is what keeps the partitioned
// schedule within a bounded distance of the single-queue one; DESIGN.md §6
// gives the argument and rebalance.go the mechanism.
//
// Submission is lock-free: each shard fronts its lock with a bounded MPSC
// intake ring (intake.go) that submitters publish into with two atomic
// operations and a doorbell CAS, taking the lock only to wake a parked
// worker; the shard's own side (its workers, a polling task, the enforcement
// pass) absorbs the ring in batches under a single lock hold, admitting N
// simultaneous wakeups with one weight-readjustment pass (sched.BatchAdder).
// DESIGN.md §9 gives the protocol and its correctness argument.
//
// The runtime depends only on the sched.Scheduler interface plus the
// optional capability interfaces of internal/sched (Tagged, BatchAdder),
// discovered per shard at construction.
// Policies lacking a capability still shard: migration and steal candidates
// then go in thread-ID order and frame translation is skipped — see
// DESIGN.md §7.
//
// # Tenant model
//
// A tenant is one scheduler-visible thread: a weight, a pair of virtual-time
// tags, and a FIFO backlog of tasks. Tasks of one tenant run serially (a
// tenant occupies at most one worker at a time), which is the paper's
// feasibility constraint — a thread can use at most one CPU — surfacing as an
// API guarantee. A tenant with an empty backlog leaves the runnable set
// (blocks); the first SubmitTask re-adds it with the §2.3 wakeup rule
// S_i = max(F_i, v), so sleeping tenants bank no credit. Backlogs are
// bounded: SubmitTask blocks when the queue is full (backpressure), and with
// NoWait() fails fast with ErrBackpressure instead.
//
// # Cooperative quanta
//
// Go cannot preempt a running closure, so quanta are cooperative: a Task is
// granted a timeslice hint (the scheduler's quantum) and reports whether it
// finished. Unfinished tasks remain at the head of their tenant's backlog and
// continue on the next dispatch — the analogue of a burst spanning several
// quanta in the simulation. Tasks that overrun the hint are simply charged
// for what they actually used; SFS is built for variable-length quanta
// (§2.3), so fairness is preserved, only dispatch latency degrades.
//
// # Determinism hook
//
// Config.Manual suppresses the worker pool and the background rebalancer;
// Dispatch, Dispatched.Complete and Rebalance — the exact code paths the
// workers and the rebalance loop use — are then driven externally. The
// differential tests in golden_test.go and shard_test.go use this to replay
// deterministic workloads on a FakeClock. See DESIGN.md §5 and §6 for the
// full design and the divergences from the simulated machine.
package rt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sfsched/internal/core"
	"sfsched/internal/engine"
	"sfsched/internal/readjust"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// Errors returned by the tenant API.
var (
	// ErrRuntimeClosed reports an operation on a closed runtime.
	ErrRuntimeClosed = errors.New("rt: runtime closed")
	// ErrTenantClosed reports an operation on an unregistered tenant.
	ErrTenantClosed = errors.New("rt: tenant unregistered")
	// ErrBackpressure reports a SubmitTask with NoWait against a full tenant
	// backlog.
	ErrBackpressure = errors.New("rt: tenant backlog full")
	// ErrForeignTenant reports a tenant handed to a runtime that does not
	// own it.
	ErrForeignTenant = errors.New("rt: tenant belongs to a different runtime")
)

// Task is one unit of tenant work. The runtime grants it a timeslice hint
// (the scheduler's quantum for the tenant) and the task reports whether it
// finished: an unfinished task stays at the head of its tenant's backlog and
// continues on a later dispatch, possibly on a different worker. The task is
// charged for the clock time that elapses while it runs, whatever the hint.
type Task func(slice simtime.Duration) (done bool)

// Once adapts a plain closure to a Task that completes in a single dispatch.
func Once(fn func()) Task {
	return func(simtime.Duration) bool {
		fn()
		return true
	}
}

// PreemptibleTask is a Task variant that receives a SliceCtx instead of a
// bare timeslice hint, so it can observe cooperative preemption: a
// well-behaved long-running task polls ctx.Preempted() at its natural
// checkpoint granularity and returns early (done=false) when the shard has
// asked for its processor back. Unfinished work stays at the backlog head and
// continues on a later dispatch, exactly as with Task; ignoring the flag
// costs only dispatch latency (the task still runs out its slice), never
// fairness. Submit one with SubmitTask(nil, Preemptible(task)).
type PreemptibleTask func(ctx SliceCtx) (done bool)

// SliceCtx is a running task's view of its in-flight slice. It is valid only
// for the duration of the task invocation it was passed to; retaining it
// after returning reads a later slice's state.
type SliceCtx struct {
	d *Dispatched
}

// Slice returns the granted timeslice hint.
func (c SliceCtx) Slice() simtime.Duration { return c.d.sl.Quantum }

// Preempted reports whether the shard has raised the cooperative preemption
// flag on this slice: a newly woken tenant out-ranks this one right now, and
// the task should return at its next checkpoint (reporting done=false if its
// work is unfinished). The flag stays raised until the slice completes. The
// poll also admits wake-ups submitted since the shard's last drain.
func (c SliceCtx) Preempted() bool { return c.d.Preempted() }

// queued is one backlog entry: exactly one of the two task forms is set. cnt
// is the shard task counter its reservation was counted on and, wherever the
// tenant lives by then, is retired from — so no counter ever goes negative.
type queued struct {
	run Task
	pre PreemptibleTask
	cnt *atomic.Int64
}

// DefaultRebalanceEvery is the period of the background shard rebalancer a
// concurrent runtime with more than one shard runs (Rebalance may still be
// called directly, and Manual mode never starts the loop).
const DefaultRebalanceEvery = 100 * time.Millisecond

// Policy constructs one dispatch shard's scheduler for the given processor
// count. Each shard calls it exactly once at runtime construction and owns
// the returned instance for its lifetime, so the factory must return a fresh
// instance per call (shard locks do not protect state shared between
// instances). The runtime probes each instance for the optional capability
// interfaces of internal/sched (Tagged, BatchAdder) to rank and translate
// cross-shard migrations, to preempt, and to export virtual times;
// instances without them fall back to policy-agnostic equivalents.
type Policy func(cpus int) sched.Scheduler

// Config assembles a Runtime; the facade calls it sfsched.RuntimeConfig. The
// knobs every runtime needs are flat fields; the enforcement, sharding and
// intake subsystems are each configured through their own group.
type Config struct {
	// Workers is the worker pool size — the number of "CPUs" the scheduler
	// arbitrates. Required.
	Workers int
	// Policy builds each shard's scheduler. Defaults to an exact-mode
	// internal/core SFS with Config.Quantum. For two-level scheduling
	// return an internal/hier instance and assign tenant threads
	// (Tenant.Thread) to classes before their first Submit. hier shards
	// like every other policy, with each shard owning its own class table:
	// a thread migrated to another shard lands in the class that shard's
	// instance has it Assigned to, or in its default class, and only its
	// frame lead travels — assign the thread on every shard's instance if
	// its class must survive rebalancing and stealing.
	Policy Policy
	// Quantum overrides the default SFS policy's maximum quantum (ignored
	// when Policy is non-nil — bake the quantum into the factory; 0 keeps
	// the paper's 200 ms default).
	Quantum simtime.Duration
	// Clock supplies time for charging. Defaults to the monotonic wall
	// clock; tests inject a FakeClock.
	Clock Clock
	// Manual suppresses the worker pool and the background rebalancer; the
	// caller drives Dispatch, Dispatched.Complete and Rebalance directly
	// (deterministic tests).
	Manual bool
	// Preempt enables cooperative wakeup preemption: when a tenant wakes on
	// a shard whose workers are all busy and the shard's policy implements
	// sched.Tagged, the worst-ranked running slice is flagged for
	// preemption (SliceCtx.Preempted) so a cooperating task yields its
	// processor early and the woken tenant dispatches without waiting out a
	// full slice — the runtime's rendering of the kernel's reschedule_idle
	// path (DESIGN.md §8). The flag is raised at the owner's next hold, at a
	// polling task's next Preempted() call or at the next enforcement tick;
	// in Manual mode, deterministically at the Submit. Policies without the
	// capability (time sharing, lottery) never flag.
	Preempt bool

	// Enforcement groups the involuntary slice-enforcement knobs.
	Enforcement EnforcementConfig
	// Sharding groups the per-CPU dispatch sharding knobs.
	Sharding ShardingConfig
	// Intake groups the submit-side knobs.
	Intake IntakeConfig
}

// EnforcementConfig groups Config's involuntary slice-enforcement knobs.
type EnforcementConfig struct {
	// Enabled arms involuntary slice enforcement (enforcer.go, DESIGN.md
	// §10): an enforcement pass — periodic in concurrent mode, Enforce() in
	// Manual mode — interim-charges running slices (sched.Tagged policies,
	// bounding tag staleness to one tick), raises the preemption flag on
	// PreemptibleTask slices past their deadline (start plus granted slice),
	// and involuntarily hands off plain Task slices that are past it or carry
	// a raised flag: the overrun is charged, the tenant leaves the runnable
	// set until the closure returns, and a fresh worker goroutine takes over
	// the slot and lane so the shard keeps its CPU count honest. Disarmed (the
	// default), none of this runs and dispatch traces are bit-identical to
	// earlier releases.
	Enabled bool
	// Tick is the enforcement granularity: deadlines round up to it, and it
	// is the interim-charge period and the bound on how long a flagged
	// non-cooperating task keeps its lane. 0 means DefaultEnforceTick.
	Tick simtime.Duration
}

// ShardingConfig groups Config's per-CPU dispatch sharding knobs.
type ShardingConfig struct {
	// Shards splits dispatch into that many independent per-CPU runqueues,
	// each with its own scheduler instance, lock and contiguous worker
	// block (Workers must be ≥ Shards). 0 or 1 keeps the single central
	// runqueue whose lock serializes all scheduling, as the paper's kernel
	// does. A concurrent runtime with more than one shard rebalances every
	// DefaultRebalanceEvery.
	Shards int
	// Steal arms idle-path cross-shard work stealing (steal.go, Shards > 1
	// only). A worker that finds its shard's runqueue and intake ring empty
	// always polls its shard briefly before it parks; armed, the poll also
	// watches the siblings' ready counts, and after it the worker transfers
	// the highest-surplus ready tenant from the most backlogged sibling
	// shard — with the same lead-preserving virtual-time frame translation
	// the rebalancer uses — before parking.
	// This closes the §1.2 partitioned-scheduling gap at microsecond
	// granularity while the rebalancer keeps correcting weights at its own
	// cadence. Disarmed (the default), no steal machinery runs, per-shard
	// dispatch traces are bit-identical to earlier releases, and TrySteal is
	// a no-op.
	Steal bool
}

// IntakeConfig groups Config's submit-side knobs.
type IntakeConfig struct {
	// QueueCap bounds each tenant's backlog (backpressure). Default 256.
	QueueCap int
}

// Tenant is a registered principal: one scheduler thread plus a bounded FIFO
// backlog of tasks. All methods are safe for concurrent use.
//
// A tenant lives on exactly one shard at a time; sh names it and the shard's
// mutex guards every other mutable field. The rebalancer may move an idle
// (not running, no blocked submitters) tenant between shards, so any path
// that is not already pinned to a shard must enter through lockShard.
type Tenant struct {
	r  *Runtime
	th *sched.Thread
	sh atomic.Pointer[shard]

	// Ring buffer of pending tasks; buf[head] is the in-progress task while
	// the tenant is running.
	buf  []queued
	head int
	n    int

	waiters     int  // submitters blocked in notFull.Wait (pins the shard)
	inSched     bool // thread currently in its shard scheduler's runnable set
	headStarted bool // buf[head] has been dispatched at least once
	wokePending bool // a wakeup Submit awaits its first dispatch (wokeAt)
	// detached marks an involuntary handoff in progress: the head task's
	// closure is still executing out of band while the thread has left the
	// runnable set (enforcer.go). The tenant is pinned to its shard and must
	// not be re-admitted, dispatched, migrated or finalized until the
	// detached slice's Complete clears the flag.
	detached bool

	// pending is the lock-free backpressure gate: accepted-but-not-retired
	// tasks, incremented by a submit-side CAS reservation before the intake
	// push and decremented when the task is finally popped (or dropped at
	// absorption for a tenant that closed after acceptance). pending ≥ n
	// always; they are equal whenever no accepted item of this tenant is
	// still in flight toward its backlog — in particular always in Manual
	// mode, where Submit absorbs eagerly.
	pending atomic.Int64
	// closing is set by Unregister or Deport, under the shard lock: in-flight
	// work drains, the backlog is dropped. The submit fast path reads it
	// lock-free.
	closing atomic.Bool

	// Latency accounting (shard lock): readyAt is when the tenant last
	// became dispatchable (woke, or completed a slice with work left);
	// wokeAt is the wakeup Submit still awaiting its first dispatch. The
	// flag that says so, wokePending, sits with the other bools: the padding
	// it would take here is what keeps Tenant in its size class.
	readyAt  simtime.Time
	wokeAt   simtime.Time
	waitHist latencyHist // ready→dispatch, every dispatch
	wakeHist latencyHist // wakeup Submit→first dispatch

	preempts int64        // slices of this tenant flagged for preemption (shard lock)
	resumes  int64        // continuation dispatches of unfinished tasks (shard lock)
	handoffs int64        // involuntary handoffs of this tenant's slices (shard lock)
	panics   atomic.Int64 // panicking tasks attributed to this tenant

	notFull *sync.Cond // Submit waits here under backpressure
}

// Runtime is the concurrent wall-clock scheduling runtime. All exported
// methods are safe for concurrent use. Scheduling state is partitioned into
// shards, each serialized by its own mutex (one shard ≡ the kernel run-queue
// lock), and the live tenants are the union of the shard sets. regMu
// serializes only Register's ID and placement and Rebalance's scratch; no
// worker takes it. Lock order: regMu → shard.mu (ascending shard id when
// taking several) → quietMu.
type Runtime struct {
	shards      []*shard
	workerShard []*shard // worker index → owning shard
	// dslots holds one preallocated Dispatched record per worker, reused
	// across slices so the hot path allocates nothing. Pointers, because an
	// involuntary handoff detaches the in-flight record from its slot (which
	// gets a fresh one, so the lane's next dispatch cannot alias the still
	// running slice) and the record lives on until its out-of-band Complete.
	dslots      []*Dispatched
	clock       Clock
	qcap        int
	manual      bool
	preempt     bool
	enforce     bool
	enforceTick simtime.Duration
	steal       bool

	closed atomic.Bool

	// Queued tasks, in-flight continuations included, stay counted per shard
	// (shard.tasks) until their final Complete; Drain waits on quietCond for a
	// zero sum, and quietGen moves on whenever one shard's counter empties.
	quietMu    sync.Mutex
	quietCond  *sync.Cond
	quietGen   atomic.Uint64
	taskPanics atomic.Int64
	migrations atomic.Int64

	regMu  sync.Mutex
	nextID int
	rebal  rebalanceScratch // Rebalance's working set, reused across calls (regMu)
	// frozen (the tenant list Stats sorts) and lag (its lag pass) are reused
	// across calls under the whole-runtime freeze; frozen is cleared after each.
	frozen []registered
	lag    readjust.GMSLag

	stop chan struct{} // closed by Close: ends the rebalance and enforcement loops
	wg   sync.WaitGroup
}

// New builds a runtime from cfg and, unless cfg.Manual is set, starts its
// worker pool (and, with Shards > 1, the background rebalancer). It panics on
// inconsistent static configuration (non-positive worker count, more shards
// than workers, policy CPU mismatch, a policy that recycles scheduler
// instances across shards); these are programmer errors.
func New(cfg Config) *Runtime {
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("rt: invalid worker count %d", cfg.Workers))
	}
	nshards := cfg.Sharding.Shards
	if nshards <= 0 {
		nshards = 1
	}
	if nshards > cfg.Workers {
		panic(fmt.Sprintf("rt: %d shards but only %d workers", nshards, cfg.Workers))
	}
	q := cfg.Quantum
	if q <= 0 {
		q = sched.DefaultQuantum
	}
	policy := cfg.Policy
	if policy == nil {
		policy = func(cpus int) sched.Scheduler { return core.New(cpus, core.WithQuantum(q)) }
	}
	clock := cfg.Clock
	if clock == nil {
		clock = NewWallClock()
	}
	qcap := cfg.Intake.QueueCap
	if qcap <= 0 {
		qcap = 256
	}
	etick := cfg.Enforcement.Tick
	if etick <= 0 {
		etick = DefaultEnforceTick
	}
	r := &Runtime{clock: clock, qcap: qcap, manual: cfg.Manual, preempt: cfg.Preempt,
		enforce: cfg.Enforcement.Enabled, enforceTick: etick,
		steal: cfg.Sharding.Steal && nshards > 1, stop: make(chan struct{})}
	r.quietCond = sync.NewCond(&r.quietMu)
	base, extra := cfg.Workers/nshards, cfg.Workers%nshards
	for i := 0; i < nshards; i++ {
		count := base
		if i < extra {
			count++
		}
		sh := &shard{r: r, id: i, workers: count,
			firstWorker: len(r.workerShard), tenants: make(map[*Tenant]struct{})}
		sch := policy(count)
		if sch == nil {
			panic(fmt.Sprintf("rt: Policy returned nil for shard %d", i))
		}
		for _, prev := range r.shards {
			if prev.eng.Scheduler() == sch {
				panic("rt: Policy must return a fresh scheduler instance per shard")
			}
		}
		if sch.NumCPU() != count {
			panic(fmt.Sprintf("rt: %d workers but scheduler configured for %d CPUs",
				count, sch.NumCPU()))
		}
		// The shard's engine instance wraps its private scheduler; capability
		// discovery happens once inside engine.New, never again on the
		// dispatch or rebalance paths.
		sh.eng = engine.New(sch)
		sh.workCond = sync.NewCond(&sh.mu)
		sh.intake.init()
		sh.wokeScratch = make([]*sched.Thread, 0, intakeCap)
		sh.rankScratch = make([]float64, 0, count)
		sh.slotScratch = make([]*Dispatched, 0, count)
		sh.active = make([]*Dispatched, 0, count)
		r.shards = append(r.shards, sh)
		for range count {
			r.workerShard = append(r.workerShard, sh)
		}
	}
	r.dslots = make([]*Dispatched, len(r.workerShard))
	for i := range r.dslots {
		r.dslots[i] = &Dispatched{}
	}
	if !cfg.Manual {
		for w := range r.workerShard {
			r.wg.Add(1)
			go r.worker(w)
		}
		if nshards > 1 {
			r.wg.Add(1)
			go r.every(DefaultRebalanceEvery, func() { r.Rebalance() })
		}
		if cfg.Enforcement.Enabled {
			r.wg.Add(1)
			go r.every(r.enforceTick.Std(), r.Enforce)
		}
	}
	return r
}

// every runs fn each period until Close: the background rebalancer
// (Shards > 1) and enforcement pass (Enforcement.Enabled) of concurrent mode.
func (r *Runtime) every(period time.Duration, fn func()) {
	defer r.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// Workers returns the worker pool size.
func (r *Runtime) Workers() int { return len(r.workerShard) }

// Register creates a tenant with the given display name and weight, placing
// it on the shard with the least weight per processor. The tenant joins its
// shard scheduler's runnable set on its first Submit.
func (r *Runtime) Register(name string, weight float64) (*Tenant, error) {
	if !sched.ValidWeight(weight) {
		return nil, fmt.Errorf("%w: %g", sched.ErrBadWeight, weight)
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if r.closed.Load() {
		return nil, ErrRuntimeClosed
	}
	r.nextID++
	th := &sched.Thread{
		ID:      r.nextID,
		Name:    name,
		Weight:  weight,
		Phi:     weight,
		CPU:     sched.NoCPU,
		LastCPU: sched.NoCPU,
	}
	tn := &Tenant{r: r, th: th, buf: make([]queued, r.qcap)}
	th.Owner = tn
	r.placeTenant(tn, weight).mu.Unlock()
	return tn, nil
}

// placeTenant binds a new tenant to the shard with the least weight per
// processor and returns that shard still locked. The scan releases each
// shard's lock before moving on, so a SetWeight, Unregister or migration can
// load the chosen shard up before the placement lands; Registers themselves
// serialize on regMu, and correcting such drift is the rebalancer's job.
func (r *Runtime) placeTenant(tn *Tenant, weight float64) *shard {
	best, bestLoad := r.shards[0], 0.0
	for i, sh := range r.shards {
		sh.mu.Lock()
		load := sh.weight / float64(sh.workers)
		sh.mu.Unlock()
		if i == 0 || load < bestLoad {
			best, bestLoad = sh, load
		}
	}
	best.mu.Lock()
	best.tenants[tn] = struct{}{}
	best.weight += weight
	tn.notFull = sync.NewCond(&best.mu)
	tn.sh.Store(best)
	return best
}

// Unregister removes a tenant. Pending backlog tasks are dropped; an
// in-flight task runs to the end of its current slice and is charged, after
// which the tenant leaves its shard's scheduler. Unregister does not wait for
// the in-flight task. Submitting to an unregistered tenant fails with
// ErrTenantClosed.
func (r *Runtime) Unregister(tn *Tenant) error {
	if tn.r != r {
		return ErrForeignTenant
	}
	sh := tn.lockShard()
	if tn.closing.Load() {
		sh.mu.Unlock()
		return ErrTenantClosed
	}
	tn.closing.Store(true)
	tn.notFull.Broadcast()
	if tn.th.Running() || tn.detached {
		// A detached tenant's head task is still executing out of band even
		// though its thread shows no CPU; dropping its backlog now would pop
		// the entry the in-flight Complete will pop again.
		sh.mu.Unlock()
		return nil // Complete finalizes after the in-flight slice
	}
	sh.dropBacklogLocked(tn)
	if tn.inSched {
		mustSched(sh.eng.Depart(tn.th, sched.Exited, r.clock.Now()))
		tn.inSched = false
		sh.nready.Add(-1) // was runnable-not-running (the Running case returned above)
	}
	sh.finalizeLocked(tn)
	sh.mu.Unlock()
	return nil
}

// SetWeight changes a tenant's weight on the fly, like the paper's setweight
// system call; the shard scheduler readjusts instantaneous weights
// immediately and the shard's sub-share moves with the tenant's weight.
func (r *Runtime) SetWeight(tn *Tenant, w float64) error {
	if tn.r != r {
		return ErrForeignTenant
	}
	if r.closed.Load() {
		return ErrRuntimeClosed
	}
	sh := tn.lockShard()
	defer sh.mu.Unlock()
	if tn.closing.Load() {
		return ErrTenantClosed
	}
	old := tn.th.Weight
	if err := sh.eng.Scheduler().SetWeight(tn.th, w, r.clock.Now()); err != nil {
		return err
	}
	sh.weight += w - old
	return nil
}

// Thread returns the tenant's scheduler-visible thread control block, for
// wiring that must happen before the tenant's first Submit (e.g. assigning
// the thread to an internal/hier class). The runtime owns the thread
// afterwards; callers must not mutate it while the tenant is active.
func (tn *Tenant) Thread() *sched.Thread { return tn.th }

// Name returns the tenant's display name.
func (tn *Tenant) Name() string { return tn.th.Name }

// Shard returns the index of the shard the tenant currently lives on.
func (tn *Tenant) Shard() int {
	sh := tn.lockShard()
	defer sh.mu.Unlock()
	return sh.id
}

// lockShard locks and returns the tenant's current shard. The rebalancer can
// move the tenant between the load of the pointer and the lock acquisition,
// so the binding is re-checked under the lock; migration is performed with
// both shard locks held, which makes the loop converge.
func (tn *Tenant) lockShard() *shard {
	for {
		sh := tn.sh.Load()
		sh.mu.Lock()
		if tn.sh.Load() == sh {
			return sh
		}
		sh.mu.Unlock()
	}
}

// Queued returns the tenant's backlog length: an unfinished in-flight task,
// queued tasks, and accepted submissions not yet absorbed from the intake
// ring.
func (tn *Tenant) Queued() int { return int(tn.pending.Load()) }

// pinned reports whether the tenant must stay on its shard (shard lock held):
// it is closing, mid-slice (running, or detached by a handoff), or has
// blocked submitters, whose notFull wait is bound to this shard's lock. The
// rebalancer, a thief and Deport move only tenants for which it is false.
func (tn *Tenant) pinned() bool {
	return tn.closing.Load() || tn.th.Running() || tn.detached || tn.waiters > 0
}

// Dispatched is an in-flight slice: a tenant's head task granted to a worker.
type Dispatched struct {
	r      *Runtime
	sh     *shard
	tn     *Tenant
	worker int // global dispatch slot index
	local  int // CPU index within the shard (the lane)
	// sl is the slice's charge accounting, owned by the shared engine:
	// engine.Slice.Charged is what mid-slice installments (interim charges,
	// the settlement at an involuntary handoff) already accounted, and
	// LastCharge the newest installment's instant — dispatch start when none
	// have landed — so Complete settles only the remainder and preemption
	// ranking projects tags forward by only the genuinely uncharged
	// in-flight service.
	sl       engine.Slice
	task     queued
	inFlight bool // set by Dispatch, cleared by Complete
	// preempted is the cooperative preemption flag, embedded in the record
	// so the running task can poll it lock-free (SliceCtx.Preempted) while
	// the shard lock holder raises it. Raised by a wakeup
	// (preemptBatchLocked) or by the enforcer at slice expiry; cleared when
	// the record's slot is next dispatched.
	preempted atomic.Bool
	activeIdx int // position in the shard's active-slice list
}

// Tenant returns the tenant whose task was dispatched.
func (d *Dispatched) Tenant() *Tenant { return d.tn }

// Slice returns the granted timeslice hint.
func (d *Dispatched) Slice() simtime.Duration { return d.sl.Quantum }

// SetDecisionRecorder attaches rec to one shard's dispatch engine. The
// structural golden tests use it to capture the exact per-shard decision
// trace; Record is invoked with the shard lock held, so recorders must not
// re-enter the runtime.
func (r *Runtime) SetDecisionRecorder(shard int, rec engine.Recorder) {
	sh := r.shards[shard]
	sh.mu.Lock()
	sh.eng.SetRecorder(rec)
	sh.mu.Unlock()
}

// Preempted reports whether this slice carries a raised cooperative
// preemption flag. Concurrent tasks read it through their SliceCtx; Manual
// drivers read it directly to model a cooperating task deciding to yield.
// A doorbell still up is answered first, if the lock is free: the poll drains
// its own shard's ring at the clock read under the lock, floored at lastNow.
func (d *Dispatched) Preempted() bool {
	if sh := d.sh; sh.drainPending.Load() && sh.mu.TryLock() {
		post := postActions{sh: sh}
		sh.drainLocked(max(d.r.clock.Now(), sh.lastNow), &post)
		sh.mu.Unlock()
		post.run(d.r)
	}
	return d.preempted.Load()
}

// Detached reports whether the enforcer involuntarily handed this slice off:
// its lane and dispatch slot were confiscated and its tenant left the
// runnable set, but the slice still owes its Complete — which a Manual driver
// issues when its workload model says the non-cooperating closure finally
// returned. Manual-mode use only, before that Complete: the one thread that
// steps the runtime is the only writer and reader. (Concurrent workers learn
// the same fact under the shard lock.) It reads the tenant's flag, since a
// tenant has at most one slice in flight, detached or not.
func (d *Dispatched) Detached() bool { return d.tn.detached }

// Dispatch asks the worker's shard scheduler for the next tenant to run and
// marks it running, or returns nil when the shard has no runnable
// non-running tenant. It is exported for Manual mode; each worker index must
// have at most one dispatch in flight (the worker pool guarantees this in
// concurrent mode). Every Dispatch must be paired with exactly one Complete,
// and the returned Dispatched — a per-worker slot reused across slices to
// keep the hot path allocation-free — must not be retained after Complete.
func (r *Runtime) Dispatch(worker int) *Dispatched {
	if worker < 0 || worker >= len(r.workerShard) {
		panic(fmt.Sprintf("rt: worker %d out of range [0,%d)", worker, len(r.workerShard)))
	}
	sh := r.workerShard[worker]
	sh.mu.Lock()
	if r.closed.Load() {
		sh.mu.Unlock()
		return nil // Close abandons the remaining backlog
	}
	// Absorb any intake first: in Manual mode the ring is already empty
	// (Submit drains eagerly), so this is a no-op that cannot perturb golden
	// traces; in concurrent mode it lets an external dispatcher see work
	// that has not been drained by a worker yet. One clock read covers both
	// the drain and the dispatch.
	now := r.clock.Now()
	post := postActions{sh: sh}
	sh.drainLocked(now, &post)
	d := sh.dispatchLocked(worker, now)
	if d != nil && post.signals > 0 {
		post.signals-- // this dispatch consumes one owed wakeup
	}
	sh.mu.Unlock()
	post.run(r)
	return d
}

// Complete ends the slice: the tenant is charged for the clock time elapsed
// since Dispatch, the head task is popped if done, and a tenant left with an
// empty backlog blocks (leaves the shard's runnable set). It returns the
// charged duration. In concurrent mode the workers call it; in Manual mode
// the driver does, passing the done value its workload model dictates.
func (d *Dispatched) Complete(done bool) simtime.Duration {
	r, sh := d.r, d.sh
	// A running tenant is never migrated, so d's shard is still tn's.
	sh.mu.Lock()
	post := postActions{sh: sh}
	elapsed := d.completeLocked(done, r.clock.Now(), &post)
	sh.publishReady()
	sh.mu.Unlock()
	post.run(r)
	return elapsed
}

// completeLocked is Complete under an already-held shard lock; the fused
// worker loop uses it to complete and re-dispatch in one lock acquisition,
// and now is that lock hold's single cached clock read — the completion
// charge, the drain absorption and the next dispatch all anchor to the same
// instant. Deferred worker signals accumulate in post.
func (d *Dispatched) completeLocked(done bool, now simtime.Time, post *postActions) simtime.Duration {
	sh, tn := d.sh, d.tn
	if !d.inFlight {
		panic("rt: slice completed twice")
	}
	d.inFlight = false
	d.task = queued{} // release the closure; the slot outlives the slice
	sh.lastNow = max(sh.lastNow, now)
	elapsed := d.sl.Elapsed(now)
	th := tn.th
	if tn.detached {
		// Out-of-band completion of an involuntarily handed-off slice: the
		// lane accounting (CPU clear, active removal) was done at
		// the handoff. Re-admit the thread with the §2.3 wakeup rule
		// and charge the post-handoff overrun, so the time the hog kept
		// burning after losing its lane is docked from its future
		// entitlement; then fall through to the ordinary pop/close handling.
		tn.detached = false
		mustSched(sh.eng.Admit(th, now))
		tn.inSched = true
		sh.ready++
		if d.sl.Uncharged(now) > 0 {
			sh.service += sh.eng.Settle(&d.sl, now, engine.NoCap)
		}
		if over := elapsed - d.sl.Quantum; over > 0 {
			sh.overrunHist.Record(over)
		}
		// Recycle the detached record: its slot got a fresh one at the handoff.
		sh.dfree = append(sh.dfree, d)
	} else {
		th.CPU = sched.NoCPU
		th.LastCPU = d.local
		// The tenant is runnable-not-running from here until the pop below
		// decides whether it stays in the set; the Remove branch re-decrements.
		sh.ready++
		sh.activeRemove(d)
		// Settle the uncharged remainder through the engine: interim
		// installments already advanced the slice's accounting; with
		// enforcement disarmed nothing has, and this is the historical
		// whole-slice charge, bit for bit.
		sh.service += sh.eng.Settle(&d.sl, now, engine.NoCap)
	}
	if done {
		tn.pop()
	}
	closing := tn.closing.Load()
	if closing {
		sh.dropBacklogLocked(tn)
	} else if tn.n == 0 && tn.inSched && tn.pending.Load() > 0 {
		// A submit accepted before this completion — a task's own successor,
		// typically — may still sit in the intake ring. Absorb it before
		// deciding: departing here would re-admit the tenant by the wakeup
		// rule at the drain, and a continuously backlogged tenant would
		// forfeit its lead on every task (§2.3). Manual mode never gets here:
		// its submits drain eagerly, so pending is n.
		sh.drainLocked(now, post)
	}
	if tn.n == 0 && tn.inSched {
		st := sched.Blocked
		if closing {
			st = sched.Exited
		}
		mustSched(sh.eng.Depart(th, st, now))
		tn.inSched = false
		sh.ready--
		if closing {
			sh.finalizeLocked(tn)
		}
	} else if tn.inSched {
		// Work remains: the tenant is dispatchable again from this instant,
		// the anchor for its next ready→dispatch latency sample — and one
		// waiting worker should pick it up.
		tn.readyAt = now
		post.signals++
	}
	if done && tn.waiters > 0 {
		// A backlog slot was freed; one blocked submitter can proceed. The
		// signal stays under the lock: notFull is rebound when the tenant
		// migrates, so the field may only be read here — waiters likewise.
		tn.notFull.Signal()
	}
	return elapsed
}

// retire takes one reservation back from the counter it was counted on and
// wakes Drain when that empties. Lock order: shard.mu → quietMu, never back.
func (r *Runtime) retire(cnt *atomic.Int64) {
	if cnt.Add(-1) == 0 {
		r.quietMu.Lock()
		r.quietGen.Add(1)
		r.quietCond.Broadcast()
		r.quietMu.Unlock()
	}
}

// taskSum adds up the shard task counters.
func (r *Runtime) taskSum() (n int64) {
	for _, sh := range r.shards {
		n += sh.tasks.Load()
	}
	return n
}

// Drain blocks until every backlog is empty and no task is in flight (or the
// runtime is closed). With tenants that perpetually resubmit, Drain only
// returns once their submitters stop. A zero sum counts only when re-read with
// every shard lock held: read counter by counter it can miss a task hopping
// shards, and retiring needs a lock, so a frozen sum can only rise. Reading
// the generation first means a counter emptying after that ends the wait.
func (r *Runtime) Drain() {
	for !r.closed.Load() {
		gen := r.quietGen.Load()
		if r.taskSum() == 0 {
			r.lockShards()
			quiet := r.taskSum() == 0
			r.unlockShards()
			if quiet {
				return
			}
		}
		r.quietMu.Lock()
		for r.quietGen.Load() == gen && !r.closed.Load() {
			r.quietCond.Wait()
		}
		r.quietMu.Unlock()
	}
}

// Close stops the worker pool (and rebalancer) and waits for in-flight tasks
// to finish. Tasks still queued are abandoned; call Drain first for a
// graceful shutdown. Close is idempotent.
func (r *Runtime) Close() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.stop)
		for _, sh := range r.shards {
			sh.mu.Lock()
			sh.workCond.Broadcast()
			for tn := range sh.tenants {
				tn.notFull.Broadcast()
			}
			sh.mu.Unlock()
		}
		r.quietMu.Lock()
		r.quietCond.Broadcast()
		r.quietMu.Unlock()
	}
	r.wg.Wait()
}

func (tn *Tenant) pop() {
	tn.r.retire(tn.buf[tn.head].cnt)
	tn.buf[tn.head] = queued{}
	tn.head = (tn.head + 1) % len(tn.buf)
	tn.n--
	tn.pending.Add(-1) // release the submit-side backpressure reservation
	tn.headStarted = false
}

// mustSched panics on scheduler errors that indicate runtime bookkeeping
// bugs (double add, removing an unmanaged thread); user input cannot cause
// them.
func mustSched(err error) {
	if err != nil {
		panic(fmt.Sprintf("rt: %v", err))
	}
}
