// Package machine simulates a symmetric multiprocessor running a pluggable
// CPU scheduler: the substrate substituting for the paper's patched Linux
// 2.2.14 kernel on a dual-processor Pentium III.
//
// The machine is a deterministic discrete-event simulator. Tasks are
// described by a Behavior that yields CPU bursts separated by blocking
// events (I/O, timers) or termination; the machine plays the kernel's role,
// invoking the scheduler exactly at the points the paper identifies (§3.1):
// arrivals, wakeups, departures, blocking events, quantum expiries and
// weight changes. Quanta on different processors are deliberately not
// synchronized — each CPU independently re-enters the scheduler when its
// current thread blocks or is preempted, as in the paper's implementation.
//
// Wakeup preemption models the 2.2 reschedule_idle path: when a thread
// arrives or wakes and no processor is idle, the machine compares it (via
// the scheduler's own Less ordering) against the least-deserving running
// thread and preempts if the newcomer wins. Without this, interactive
// response times would be quantized to the 200 ms quantum, which neither
// Linux nor the paper's Figure 6(c) exhibits.
package machine

import (
	"fmt"

	"sfsched/internal/engine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// Then says what a task does when a CPU burst completes.
type Then int

// Burst outcomes.
const (
	// ThenBlock puts the task to sleep for Step.Sleep, then starts the
	// next burst.
	ThenBlock Then = iota
	// ThenExit terminates the task.
	ThenExit
)

// Step is one CPU burst of a task and what follows it.
type Step struct {
	// Burst is the CPU time consumed before the boundary;
	// simtime.Infinity means the task computes forever.
	Burst simtime.Duration
	// Then is the boundary action once Burst has been consumed.
	Then Then
	// Sleep is the blocking duration when Then == ThenBlock; zero yields
	// an immediate re-wakeup (the task still passes through a blocking
	// event, churning the runnable set).
	Sleep simtime.Duration
}

// Behavior generates the CPU demand of a task. Next is called once per
// burst; implementations may use the deterministic generator r.
type Behavior interface {
	Next(now simtime.Time, r *xrand.Rand) Step
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(now simtime.Time, r *xrand.Rand) Step

// Next implements Behavior.
func (f BehaviorFunc) Next(now simtime.Time, r *xrand.Rand) Step { return f(now, r) }

// Hooks observe thread lifecycle transitions; the GMS fluid reference
// attaches here. Charges and every other decision are observed through
// SetDecisionRecorder. Nil fields are skipped.
type Hooks struct {
	// Runnable fires after a thread arrives or wakes.
	Runnable func(t *sched.Thread, now simtime.Time)
	// Unrunnable fires after a thread blocks or exits.
	Unrunnable func(t *sched.Thread, now simtime.Time)
	// WeightChanging fires immediately before a weight change is applied.
	WeightChanging func(t *sched.Thread, now simtime.Time)
}

// Config assembles a machine.
type Config struct {
	// CPUs is the processor count; it must match the scheduler's.
	CPUs int
	// Scheduler is the policy under test.
	Scheduler sched.Scheduler
	// DisableWakePreemption turns off the reschedule-on-wakeup path.
	DisableWakePreemption bool
	// Seed initializes the deterministic workload RNG.
	Seed uint64
}

// Stats aggregates machine-level counters.
type Stats struct {
	Dispatches      int64
	ContextSwitches int64
	Preemptions     int64
	Migrations      int64
	IdleTime        simtime.Duration
}

// Task is a simulated process: a thread control block plus its behaviour.
type Task struct {
	m        *Machine
	t        *sched.Thread
	behavior Behavior
	// rem is the CPU time left in the current burst; valid while
	// stepLoaded.
	rem        simtime.Duration
	step       Step
	stepLoaded bool
	lastWake   simtime.Time
	onExit     func(now simtime.Time)
	onBurstEnd func(now simtime.Time)
	exited     bool
}

// Thread returns the task's scheduler-visible control block.
func (k *Task) Thread() *sched.Thread { return k.t }

// Exited reports whether the task has terminated.
func (k *Task) Exited() bool { return k.exited }

// LastWake returns the time the task last became runnable.
func (k *Task) LastWake() simtime.Time { return k.lastWake }

// SpawnConfig describes a task to create.
type SpawnConfig struct {
	Name     string
	Weight   float64 // default 1, like the paper's kernel
	Priority int     // time-sharing priority in ticks; default 20
	Behavior Behavior
	At       simtime.Time // arrival time
	// OnExit fires when the task terminates (short-job streams respawn
	// here).
	OnExit func(now simtime.Time)
	// OnBurstEnd fires when a CPU burst completes (response-time and
	// frame-rate instrumentation).
	OnBurstEnd func(now simtime.Time)
}

type cpuState struct {
	cur  *Task
	last *Task
	// sl is the in-flight slice's accounting (engine.Slice.LastCharge is
	// the service accrual start, advanced by interim installments — the
	// historical runStart).
	sl engine.Slice
	// stop is the in-flight quantum's planned end, valid while cur is set:
	// its time and the seq it drew from the event counter, so it orders
	// against the event heap as a queued event would. It lives here, not in
	// the heap, so a preemption or a Kill leaves no stale entry behind.
	stop   event
	idleAt simtime.Time
}

// event is one entry of the event queue: call fn; or, with fn nil, wake the
// blocked task wake — a block costs no closure.
type event struct {
	at   simtime.Time
	seq  uint64
	fn   func()
	wake *Task
}

// before is the event order: time, then scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Machine is a simulated SMP: the event-driven clock driver over the shared
// dispatch engine (internal/engine), which owns every scheduling decision —
// admission, pick validation, quantum grants, charge arithmetic, preemption
// ordering. The machine owns what a clock driver owns: the event heap of
// wakes and callbacks, each CPU's quantum end, the simulated clock, task
// behaviors and burst bookkeeping. Not safe for concurrent use.
type Machine struct {
	sch     sched.Scheduler
	eng     *engine.Engine
	cpus    []cpuState
	preempt bool
	rng     *xrand.Rand

	now    simtime.Time
	evq    []event // binary min-heap on (at, seq): wakes and callbacks
	seq    uint64  // the order counter of evq and of the CPUs' stops
	nextID int

	tasks []*Task // by Thread.ID (dense from 1; slot 0 unused); nil once exited
	hooks Hooks
	stats Stats

	// victims is the wakeup-preemption scan's scratch (no per-wakeup
	// allocation).
	victims []*sched.Thread
}

// New builds a machine from cfg. It panics on inconsistent static
// configuration (CPU counts, nil scheduler); these are programmer errors.
func New(cfg Config) *Machine {
	if cfg.Scheduler == nil {
		panic("machine: nil scheduler")
	}
	if cfg.CPUs < 1 {
		panic(fmt.Sprintf("machine: invalid CPU count %d", cfg.CPUs))
	}
	if cfg.CPUs != cfg.Scheduler.NumCPU() {
		panic(fmt.Sprintf("machine: %d CPUs but scheduler configured for %d",
			cfg.CPUs, cfg.Scheduler.NumCPU()))
	}
	m := &Machine{
		sch:     cfg.Scheduler,
		eng:     engine.New(cfg.Scheduler),
		cpus:    make([]cpuState, cfg.CPUs),
		preempt: !cfg.DisableWakePreemption,
		rng:     xrand.New(cfg.Seed),
		tasks:   make([]*Task, 1),
		victims: make([]*sched.Thread, 0, cfg.CPUs),
	}
	return m
}

// Now returns the current simulated time.
func (m *Machine) Now() simtime.Time { return m.now }

// Scheduler returns the policy under test.
func (m *Machine) Scheduler() sched.Scheduler { return m.sch }

// Stats returns a snapshot of machine counters.
func (m *Machine) Stats() Stats { return m.stats }

// SetHooks installs lifecycle observers; call before Run.
func (m *Machine) SetHooks(h Hooks) { m.hooks = h }

// SetDecisionRecorder attaches rec to the machine's dispatch engine. The
// structural golden tests use it to capture the exact decision trace and
// compare it, event for event, against a runtime driving the same engine.
func (m *Machine) SetDecisionRecorder(rec engine.Recorder) { m.eng.SetRecorder(rec) }

// push schedules fn at simulated time at (clamped to now).
func (m *Machine) push(at simtime.Time, fn func()) { m.pushEvent(event{at: at, fn: fn}) }

func (m *Machine) pushEvent(e event) {
	if e.at < m.now {
		e.at = m.now
	}
	m.seq++
	e.seq = m.seq
	q := append(m.evq, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	m.evq = q
}

// popEvent removes and returns the earliest event of a non-empty queue.
func (m *Machine) popEvent() event {
	q := m.evq
	top, n := q[0], len(q)-1
	e := q[n]
	q[n] = event{}
	q = q[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if r := c + 1; r < n {
			// The lesser child by a 0/1 step, not a branch; seq decides
			// only between equal times.
			if ar, ac := q[r].at, q[c].at; ar != ac {
				d := 0
				if ar < ac {
					d = 1
				}
				c += d
			} else if q[r].seq < q[c].seq {
				c = r
			}
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = e
	}
	m.evq = q
	return top
}

// At schedules fn to run at simulated time t (clamped to now).
func (m *Machine) At(t simtime.Time, fn func(now simtime.Time)) {
	m.push(t, func() { fn(m.now) })
}

// Every schedules fn at now+interval, then every interval thereafter.
func (m *Machine) Every(interval simtime.Duration, fn func(now simtime.Time)) {
	if interval <= 0 {
		panic("machine: non-positive interval")
	}
	var rep func()
	rep = func() {
		fn(m.now)
		m.push(m.now.Add(interval), rep)
	}
	m.push(m.now.Add(interval), rep)
}

// Spawn registers a task to arrive at cfg.At.
func (m *Machine) Spawn(cfg SpawnConfig) *Task {
	if cfg.Behavior == nil {
		panic("machine: spawn without behavior")
	}
	w := cfg.Weight
	if w == 0 {
		w = 1 // the paper's kernel assigns a default weight of 1
	}
	m.nextID++
	t := &sched.Thread{
		ID:       m.nextID,
		Name:     cfg.Name,
		Weight:   w,
		Phi:      w,
		CPU:      sched.NoCPU,
		LastCPU:  sched.NoCPU,
		Priority: cfg.Priority,
	}
	k := &Task{
		m:          m,
		t:          t,
		behavior:   cfg.Behavior,
		onExit:     cfg.OnExit,
		onBurstEnd: cfg.OnBurstEnd,
	}
	m.tasks = append(m.tasks, k)
	m.push(cfg.At, func() { m.arrive(k) })
	return k
}

// SetWeight changes a task's weight at time t (the setweight system call).
func (m *Machine) SetWeight(k *Task, w float64) error {
	if m.hooks.WeightChanging != nil {
		m.hooks.WeightChanging(k.t, m.now)
	}
	return m.sch.SetWeight(k.t, w, m.now)
}

// Kill terminates a task immediately, whatever its state (the experiment
// harness uses it to stop tasks at wall-clock instants, as the paper does
// with task T2 in Figure 4).
func (m *Machine) Kill(k *Task) {
	if k.exited {
		return
	}
	if k.t.Running() {
		m.stop(k.t.CPU)
	}
	if k.t.State == sched.Runnable {
		if err := m.eng.Depart(k.t, sched.Exited, m.now); err != nil {
			panic(fmt.Errorf("machine: kill: %w", err))
		}
		if m.hooks.Unrunnable != nil {
			m.hooks.Unrunnable(k.t, m.now)
		}
	} else {
		k.t.State = sched.Exited
	}
	k.exited = true
	m.tasks[k.t.ID] = nil
	if k.onExit != nil {
		k.onExit(m.now)
	}
	m.schedule()
}

// ServiceNow returns the task's CPU service including the uncharged portion
// of any quantum currently in progress; samplers use it so that measurements
// are not quantized to quantum boundaries.
func (m *Machine) ServiceNow(k *Task) simtime.Duration {
	s := k.t.Service
	if k.t.Running() {
		s += m.cpus[k.t.CPU].sl.Uncharged(m.now)
	}
	return s
}

// Run executes events until the simulated clock reaches until, then settles
// in-flight quanta so that service accounting is exact at the horizon.
// It may be called repeatedly with increasing horizons.
func (m *Machine) Run(until simtime.Time) {
	m.schedule()
	for {
		// The next event is the earliest busy CPU's quantum end or the heap's
		// top, whichever comes first on (at, seq).
		var next *event
		cpu := -1
		for i := range m.cpus {
			if c := &m.cpus[i]; c.cur != nil && (next == nil || c.stop.before(next)) {
				next, cpu = &c.stop, i
			}
		}
		if len(m.evq) > 0 && (next == nil || m.evq[0].before(next)) {
			next, cpu = &m.evq[0], -1
		}
		if next == nil || next.at > until {
			break
		}
		m.now = next.at
		if cpu >= 0 {
			m.cpuStop(cpu)
		} else if e := m.popEvent(); e.fn != nil {
			e.fn()
		} else {
			m.wake(e.wake)
		}
	}
	if until > m.now {
		m.now = until
	}
	m.settle()
	// Account idle time that is still open at the horizon, so Stats are
	// exact even for CPUs that never dispatched again.
	for i := range m.cpus {
		c := &m.cpus[i]
		if c.cur == nil {
			m.stats.IdleTime += m.now.Sub(c.idleAt)
			c.idleAt = m.now
		}
	}
}

// arrive makes a task runnable for the first time (or respawned streams).
func (m *Machine) arrive(k *Task) {
	if k.exited {
		return
	}
	k.loadStep()
	k.lastWake = m.now
	if err := m.eng.Admit(k.t, m.now); err != nil {
		panic(fmt.Errorf("machine: arrive: %w", err))
	}
	if m.hooks.Runnable != nil {
		m.hooks.Runnable(k.t, m.now)
	}
	m.wakePreempt(k)
	m.schedule()
}

func (k *Task) loadStep() {
	if k.stepLoaded {
		return
	}
	k.step = k.behavior.Next(k.m.now, k.m.rng)
	if k.step.Burst <= 0 {
		// A zero-length burst still passes through the scheduler; give
		// it the minimum representable slice to keep time advancing.
		k.step.Burst = simtime.Microsecond
	}
	k.rem = k.step.Burst
	k.stepLoaded = true
}

// syncRunning performs an interim charge of the service each running task
// has accrued so far, so that scheduler state (tags, counters, surpluses)
// reflects reality mid-quantum. This stands in for the kernel's timer-tick
// accounting: without it a CPU hog halfway through a 200 ms quantum would
// still look freshly recharged to preemption comparisons. The CPU's planned
// quantum end stays valid: the engine installment charges only the accrual
// since the last one, capped at the task's remaining burst.
func (m *Machine) syncRunning() {
	for i := range m.cpus {
		c := &m.cpus[i]
		if c.cur != nil {
			c.cur.rem -= m.eng.ChargeInstallment(&c.sl, m.now, c.cur.rem)
		}
	}
}

// wakePreempt implements reschedule-on-wakeup: if no CPU is idle and the
// newcomer is preferred (by the scheduler's own ordering) over the least
// deserving running thread, that thread is preempted.
func (m *Machine) wakePreempt(k *Task) {
	if !m.preempt {
		return
	}
	for i := range m.cpus {
		if m.cpus[i].cur == nil {
			return // an idle CPU will absorb the wakeup
		}
	}
	m.syncRunning()
	running := m.victims[:0]
	for i := range m.cpus {
		running = append(running, m.cpus[i].cur.t)
	}
	victim := m.eng.LessVictim(running)
	m.victims = running[:0]
	if victim >= 0 && m.eng.Prefer(k.t, m.cpus[victim].cur.t) {
		m.stop(victim)
		m.stats.Preemptions++
	}
}

// stop deschedules the task on cpu, charging it for the service it
// received. The task remains runnable (quantum expiry / preemption); burst
// boundaries are handled by the caller.
func (m *Machine) stop(cpu int) *Task {
	c := &m.cpus[cpu]
	k := c.cur
	if k == nil {
		return nil
	}
	// Settle the remainder through the engine, capped at the remaining
	// burst (a task cannot consume beyond it).
	k.rem -= m.eng.Settle(&c.sl, m.now, k.rem)
	k.t.LastCPU = cpu
	k.t.CPU = sched.NoCPU
	c.cur = nil
	c.idleAt = m.now
	return k
}

// cpuStop handles the planned end of a quantum (expiry, block or exit).
func (m *Machine) cpuStop(cpu int) {
	k := m.stop(cpu)
	if k.rem == 0 {
		m.finishBurst(k)
	}
	m.schedule()
}

// finishBurst performs the boundary action of a completed burst.
func (m *Machine) finishBurst(k *Task) {
	k.stepLoaded = false
	if k.onBurstEnd != nil {
		k.onBurstEnd(m.now)
	}
	switch k.step.Then {
	case ThenExit:
		if err := m.eng.Depart(k.t, sched.Exited, m.now); err != nil {
			panic(fmt.Errorf("machine: exit: %w", err))
		}
		if m.hooks.Unrunnable != nil {
			m.hooks.Unrunnable(k.t, m.now)
		}
		k.exited = true
		m.tasks[k.t.ID] = nil
		if k.onExit != nil {
			k.onExit(m.now)
		}
	case ThenBlock:
		if err := m.eng.Depart(k.t, sched.Blocked, m.now); err != nil {
			panic(fmt.Errorf("machine: block: %w", err))
		}
		if m.hooks.Unrunnable != nil {
			m.hooks.Unrunnable(k.t, m.now)
		}
		m.pushEvent(event{at: m.now.Add(k.step.Sleep), wake: k})
	default:
		panic(fmt.Sprintf("machine: unknown burst action %d", k.step.Then))
	}
}

// wake returns a blocked task to the runnable set.
func (m *Machine) wake(k *Task) {
	if k.exited {
		return
	}
	k.loadStep()
	k.lastWake = m.now
	if err := m.eng.Admit(k.t, m.now); err != nil {
		panic(fmt.Errorf("machine: wake: %w", err))
	}
	if m.hooks.Runnable != nil {
		m.hooks.Runnable(k.t, m.now)
	}
	m.wakePreempt(k)
	m.schedule()
}

// schedule fills every idle CPU with the engine's validated picks. Contract
// violations surface as panics carrying the engine's sentinel errors
// (engine.ErrThreadRunning, engine.ErrUnknownThread), so they report
// identically from both drivers.
func (m *Machine) schedule() {
	for i := range m.cpus {
		if m.cpus[i].cur != nil {
			continue
		}
		t, err := m.eng.Pick(i, m.now)
		if err != nil {
			panic(fmt.Errorf("machine: %w", err))
		}
		if t == nil {
			continue
		}
		var k *Task
		if uint(t.ID) < uint(len(m.tasks)) {
			k = m.tasks[t.ID]
		}
		if k == nil || k.t != t {
			panic(fmt.Errorf("machine: %w: %v", engine.ErrUnknownThread, t))
		}
		m.dispatch(i, k)
	}
}

// dispatch starts k on cpu for min(timeslice, remaining burst).
func (m *Machine) dispatch(cpu int, k *Task) {
	c := &m.cpus[cpu]
	m.stats.Dispatches++
	m.stats.IdleTime += m.now.Sub(c.idleAt)
	if c.last != k {
		m.stats.ContextSwitches++
	}
	if k.t.LastCPU != sched.NoCPU && k.t.LastCPU != cpu {
		m.stats.Migrations++
	}
	if err := m.eng.Begin(&c.sl, k.t, cpu, m.now, m.now); err != nil {
		panic(fmt.Errorf("machine: %w", err))
	}
	runFor := simtime.Min(c.sl.Quantum, k.rem)
	c.cur = k
	c.last = k
	m.seq++
	c.stop = event{at: m.now.Add(runFor), seq: m.seq}
}

// settle charges all in-flight quanta up to the current time, leaving the
// tasks runnable, so that Service values are exact at the horizon.
func (m *Machine) settle() {
	for i := range m.cpus {
		if m.cpus[i].cur == nil {
			continue
		}
		k := m.stop(i)
		if k.rem == 0 {
			m.finishBurst(k)
		}
	}
}
