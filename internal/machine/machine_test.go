package machine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/engine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/timeshare"
	"sfsched/internal/xrand"
)

func newSFSMachine(p int, q simtime.Duration) *Machine {
	return New(Config{
		CPUs:      p,
		Scheduler: core.New(p, core.WithQuantum(q)),
		Seed:      1,
	})
}

// inf is a never-blocking compute behaviour.
func inf() Behavior {
	return BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
		return Step{Burst: simtime.Infinity, Then: ThenBlock}
	})
}

// finite consumes total CPU then exits.
func finite(total simtime.Duration) Behavior {
	return BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
		return Step{Burst: total, Then: ThenExit}
	})
}

func TestSingleTaskGetsFullCPU(t *testing.T) {
	m := newSFSMachine(2, 200*simtime.Millisecond)
	k := m.Spawn(SpawnConfig{Name: "solo", Behavior: inf()})
	m.Run(simtime.Time(10 * simtime.Second))
	if got := k.Thread().Service; got != 10*simtime.Second {
		t.Fatalf("service %v, want 10s", got)
	}
}

func TestWorkConservation(t *testing.T) {
	// Two CPUs, three compute-bound tasks: the machine must deliver
	// exactly 2 CPU-seconds per wall second.
	m := newSFSMachine(2, 200*simtime.Millisecond)
	tasks := []*Task{
		m.Spawn(SpawnConfig{Name: "a", Behavior: inf()}),
		m.Spawn(SpawnConfig{Name: "b", Behavior: inf()}),
		m.Spawn(SpawnConfig{Name: "c", Behavior: inf()}),
	}
	m.Run(simtime.Time(9 * simtime.Second))
	var total simtime.Duration
	for _, k := range tasks {
		total += k.Thread().Service
	}
	if total != 18*simtime.Second {
		t.Fatalf("total service %v, want 18s", total)
	}
	if m.Stats().IdleTime != 0 {
		t.Fatalf("idle time %v on a saturated machine", m.Stats().IdleTime)
	}
}

func TestProportionalEndToEnd(t *testing.T) {
	m := newSFSMachine(2, 10*simtime.Millisecond)
	a := m.Spawn(SpawnConfig{Name: "a", Weight: 3, Behavior: inf()})
	b := m.Spawn(SpawnConfig{Name: "b", Weight: 1, Behavior: inf()})
	c := m.Spawn(SpawnConfig{Name: "c", Weight: 1, Behavior: inf()})
	d := m.Spawn(SpawnConfig{Name: "d", Weight: 1, Behavior: inf()})
	m.Run(simtime.Time(30 * simtime.Second))
	// 3:1:1:1 on p=2 is feasible (3/6 = 1/2); shares must track weights.
	sa := a.Thread().Service.Seconds()
	for _, k := range []*Task{b, c, d} {
		r := sa / k.Thread().Service.Seconds()
		if math.Abs(r-3) > 0.15 {
			t.Fatalf("ratio a/%s = %.3f, want ~3", k.Thread().Name, r)
		}
	}
}

func TestFiniteTaskExits(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	var exitedAt simtime.Time
	k := m.Spawn(SpawnConfig{
		Name:     "job",
		Behavior: finite(500 * simtime.Millisecond),
		OnExit:   func(now simtime.Time) { exitedAt = now },
	})
	m.Run(simtime.Time(2 * simtime.Second))
	if !k.Exited() {
		t.Fatal("task did not exit")
	}
	if exitedAt != simtime.Time(500*simtime.Millisecond) {
		t.Fatalf("exit at %v, want 0.5s", exitedAt)
	}
	if k.Thread().Service != 500*simtime.Millisecond {
		t.Fatalf("service %v", k.Thread().Service)
	}
}

func TestBlockingAndWakeup(t *testing.T) {
	// A periodic task: 50 ms burst, 150 ms sleep, alone on one CPU: it
	// should get ~25% of wall clock.
	m := newSFSMachine(1, 200*simtime.Millisecond)
	k := m.Spawn(SpawnConfig{
		Name: "periodic",
		Behavior: BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
			return Step{Burst: 50 * simtime.Millisecond, Then: ThenBlock, Sleep: 150 * simtime.Millisecond}
		}),
	})
	m.Run(simtime.Time(10 * simtime.Second))
	got := k.Thread().Service.Seconds()
	if math.Abs(got-2.5) > 0.1 {
		t.Fatalf("service %.3fs, want ~2.5s", got)
	}
}

func TestWakeupPreemption(t *testing.T) {
	// Interactive task vs two compute hogs on two CPUs under time
	// sharing: wakeup preemption must deliver millisecond-scale response,
	// not quantum-scale.
	m := New(Config{
		CPUs:      2,
		Scheduler: timeshare.New(2),
		Seed:      1,
	})
	for i := 0; i < 2; i++ {
		m.Spawn(SpawnConfig{Name: "hog", Behavior: inf()})
	}
	var worst simtime.Duration
	var samples int
	var interact *Task
	interact = m.Spawn(SpawnConfig{
		Name: "interact",
		Behavior: BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
			return Step{Burst: 2 * simtime.Millisecond, Then: ThenBlock, Sleep: 100 * simtime.Millisecond}
		}),
		OnBurstEnd: func(now simtime.Time) {
			// Skip the cold start: at t=0 everyone arrives at once with
			// equal goodness, so the first burst legitimately waits a
			// full quantum.
			if now < simtime.Time(simtime.Second) {
				return
			}
			d := now.Sub(interact.LastWake())
			if d > worst {
				worst = d
			}
			samples++
		},
	})
	m.Run(simtime.Time(20 * simtime.Second))
	if samples < 100 {
		t.Fatalf("only %d interactive bursts", samples)
	}
	if worst > 50*simtime.Millisecond {
		t.Fatalf("worst response %v; wakeup preemption broken", worst)
	}
	if m.Stats().Preemptions == 0 {
		t.Fatal("no preemptions recorded")
	}
}

func TestDisableWakePreemption(t *testing.T) {
	m := New(Config{
		CPUs:                  1,
		Scheduler:             timeshare.New(1),
		Seed:                  1,
		DisableWakePreemption: true,
	})
	m.Spawn(SpawnConfig{Name: "hog", Behavior: inf()})
	m.Spawn(SpawnConfig{
		Name: "interact",
		Behavior: BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
			return Step{Burst: simtime.Millisecond, Then: ThenBlock, Sleep: 50 * simtime.Millisecond}
		}),
	})
	m.Run(simtime.Time(5 * simtime.Second))
	if m.Stats().Preemptions != 0 {
		t.Fatalf("preemptions %d with preemption disabled", m.Stats().Preemptions)
	}
}

func TestKillRunnable(t *testing.T) {
	m := newSFSMachine(2, 200*simtime.Millisecond)
	a := m.Spawn(SpawnConfig{Name: "a", Behavior: inf()})
	b := m.Spawn(SpawnConfig{Name: "b", Behavior: inf()})
	m.At(simtime.Time(simtime.Second), func(now simtime.Time) { m.Kill(a) })
	m.Run(simtime.Time(3 * simtime.Second))
	if !a.Exited() {
		t.Fatal("killed task not exited")
	}
	if got := a.Thread().Service; got != simtime.Second {
		t.Fatalf("killed task service %v, want 1s", got)
	}
	// b must absorb both CPUs' worth? No — b is one thread: one CPU.
	if got := b.Thread().Service; got != 3*simtime.Second {
		t.Fatalf("survivor service %v, want 3s", got)
	}
}

func TestKillBlocked(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	k := m.Spawn(SpawnConfig{
		Name: "sleeper",
		Behavior: BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
			return Step{Burst: 10 * simtime.Millisecond, Then: ThenBlock, Sleep: simtime.Second}
		}),
	})
	m.At(simtime.Time(500*simtime.Millisecond), func(now simtime.Time) { m.Kill(k) })
	m.Run(simtime.Time(3 * simtime.Second))
	if !k.Exited() {
		t.Fatal("blocked task not killed")
	}
	if got := k.Thread().Service; got != 10*simtime.Millisecond {
		t.Fatalf("service %v", got)
	}
}

func TestServiceNowIncludesPartialQuantum(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	k := m.Spawn(SpawnConfig{Name: "solo", Behavior: inf()})
	var mid simtime.Duration
	m.At(simtime.Time(100*simtime.Millisecond), func(now simtime.Time) {
		mid = m.ServiceNow(k)
	})
	m.Run(simtime.Time(simtime.Second))
	if mid != 100*simtime.Millisecond {
		t.Fatalf("ServiceNow mid-quantum %v, want 100ms", mid)
	}
}

func TestEveryAndAtOrdering(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	var ticks []simtime.Time
	m.Every(simtime.Second, func(now simtime.Time) { ticks = append(ticks, now) })
	fired := false
	m.At(simtime.Time(2500*simtime.Millisecond), func(now simtime.Time) { fired = true })
	m.Run(simtime.Time(3500 * simtime.Millisecond))
	if len(ticks) != 3 {
		t.Fatalf("ticks %v", ticks)
	}
	if !fired {
		t.Fatal("At event did not fire")
	}
}

func TestHooksFire(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	var runnable, unrunnable int
	m.SetHooks(Hooks{
		Runnable:   func(th *sched.Thread, now simtime.Time) { runnable++ },
		Unrunnable: func(th *sched.Thread, now simtime.Time) { unrunnable++ },
	})
	m.Spawn(SpawnConfig{
		Name: "looper",
		Behavior: BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
			return Step{Burst: 10 * simtime.Millisecond, Then: ThenBlock, Sleep: 10 * simtime.Millisecond}
		}),
	})
	m.Run(simtime.Time(simtime.Second))
	if runnable < 10 || unrunnable < 10 {
		t.Fatalf("hooks fired %d/%d times", runnable, unrunnable)
	}
}

func TestSetWeightMidRun(t *testing.T) {
	m := newSFSMachine(1, 10*simtime.Millisecond)
	a := m.Spawn(SpawnConfig{Name: "a", Behavior: inf()})
	b := m.Spawn(SpawnConfig{Name: "b", Behavior: inf()})
	m.At(simtime.Time(5*simtime.Second), func(now simtime.Time) {
		if err := m.SetWeight(a, 3); err != nil {
			t.Errorf("SetWeight: %v", err)
		}
	})
	m.Run(simtime.Time(25 * simtime.Second))
	// Phase 1 (0–5 s): 2.5 s each. Phase 2 (5–25 s): a gets 15 s, b 5 s.
	if got := a.Thread().Service.Seconds(); math.Abs(got-17.5) > 0.5 {
		t.Fatalf("a service %.2f, want ~17.5", got)
	}
	if got := b.Thread().Service.Seconds(); math.Abs(got-7.5) > 0.5 {
		t.Fatalf("b service %.2f, want ~7.5", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []simtime.Duration {
		m := newSFSMachine(2, 50*simtime.Millisecond)
		var tasks []*Task
		for i := 0; i < 6; i++ {
			tasks = append(tasks, m.Spawn(SpawnConfig{
				Name:   "t",
				Weight: float64(i + 1),
				Behavior: BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
					return Step{
						Burst: simtime.Duration(1+r.Intn(80)) * simtime.Millisecond,
						Then:  ThenBlock,
						Sleep: simtime.Duration(r.Intn(50)) * simtime.Millisecond,
					}
				}),
			}))
		}
		m.Run(simtime.Time(10 * simtime.Second))
		var out []simtime.Duration
		for _, k := range tasks {
			out = append(out, k.Thread().Service)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic service for task %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunIsResumable(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	k := m.Spawn(SpawnConfig{Name: "solo", Behavior: inf()})
	m.Run(simtime.Time(simtime.Second))
	if got := k.Thread().Service; got != simtime.Second {
		t.Fatalf("after first run: %v", got)
	}
	m.Run(simtime.Time(2 * simtime.Second))
	if got := k.Thread().Service; got != 2*simtime.Second {
		t.Fatalf("after second run: %v", got)
	}
}

func TestSpawnDefaultsAndPanics(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	k := m.Spawn(SpawnConfig{Name: "d", Behavior: inf()})
	if k.Thread().Weight != 1 {
		t.Fatalf("default weight %g", k.Thread().Weight)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil behavior did not panic")
			}
		}()
		m.Spawn(SpawnConfig{Name: "bad"})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched CPU count did not panic")
			}
		}()
		New(Config{CPUs: 2, Scheduler: core.New(3)})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil scheduler did not panic")
			}
		}()
		New(Config{CPUs: 1})
	}()
}

func TestStatsCounters(t *testing.T) {
	m := newSFSMachine(2, 50*simtime.Millisecond)
	for i := 0; i < 4; i++ {
		m.Spawn(SpawnConfig{Name: "t", Behavior: inf()})
	}
	m.Run(simtime.Time(5 * simtime.Second))
	st := m.Stats()
	if st.Dispatches == 0 || st.ContextSwitches == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSpawnInThePastClamps(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	m.Run(simtime.Time(simtime.Second))
	// Arrival time before "now": clamped to now rather than rewinding.
	k := m.Spawn(SpawnConfig{Name: "late", Behavior: inf(), At: 0})
	m.Run(simtime.Time(2 * simtime.Second))
	if got := k.Thread().Service; got != simtime.Second {
		t.Fatalf("late spawn service %v, want 1s", got)
	}
}

func TestZeroBurstBehaviorSurvives(t *testing.T) {
	// A behaviour returning zero-length bursts must not hang the machine.
	m := newSFSMachine(1, 200*simtime.Millisecond)
	n := 0
	m.Spawn(SpawnConfig{
		Name: "degenerate",
		Behavior: BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
			n++
			return Step{Burst: 0, Then: ThenBlock, Sleep: 10 * simtime.Millisecond}
		}),
	})
	m.Run(simtime.Time(simtime.Second))
	if n < 50 {
		t.Fatalf("degenerate behavior only stepped %d times", n)
	}
}

func TestDoubleKillIsIdempotent(t *testing.T) {
	m := newSFSMachine(1, 200*simtime.Millisecond)
	k := m.Spawn(SpawnConfig{Name: "victim", Behavior: inf()})
	m.At(simtime.Time(100*simtime.Millisecond), func(now simtime.Time) {
		m.Kill(k)
		m.Kill(k)
	})
	m.Run(simtime.Time(simtime.Second))
	if !k.Exited() {
		t.Fatal("not exited")
	}
}

// chargeSum is a decision recorder adding up every charge the engine makes.
type chargeSum simtime.Duration

func (c *chargeSum) Record(e engine.Event) {
	if e.Kind == engine.KindInterim || e.Kind == engine.KindSettle {
		*c += chargeSum(e.Ran)
	}
}

// TestServiceConservation is the machine's core accounting property: over
// any horizon, delivered service plus idle time equals machine capacity,
// under arbitrary churn (arrivals, blocking, exits, kills, preemptions).
func TestServiceConservation(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m := New(Config{
			CPUs:      3,
			Scheduler: core.New(3, core.WithQuantum(30*simtime.Millisecond)),
			Seed:      seed,
		})
		var delivered chargeSum
		m.SetDecisionRecorder(&delivered)
		r := xrand.New(seed * 99)
		for i := 0; i < 12; i++ {
			w := float64(1 + r.Intn(9))
			switch i % 3 {
			case 0:
				m.Spawn(SpawnConfig{Name: "inf", Weight: w, Behavior: inf()})
			case 1:
				m.Spawn(SpawnConfig{Name: "per", Weight: w, Behavior: BehaviorFunc(
					func(now simtime.Time, rr *xrand.Rand) Step {
						return Step{
							Burst: simtime.Duration(1+rr.Intn(100)) * simtime.Millisecond,
							Then:  ThenBlock,
							Sleep: simtime.Duration(rr.Intn(80)) * simtime.Millisecond,
						}
					})})
			default:
				k := m.Spawn(SpawnConfig{Name: "fin", Weight: w,
					Behavior: finite(simtime.Duration(1+r.Intn(3)) * simtime.Second)})
				if i == 5 {
					m.At(simtime.Time(2*simtime.Second), func(now simtime.Time) { m.Kill(k) })
				}
			}
		}
		horizon := simtime.Time(15 * simtime.Second)
		m.Run(horizon)
		capacity := simtime.Duration(horizon) * 3
		if got := simtime.Duration(delivered) + m.Stats().IdleTime; got != capacity {
			t.Fatalf("seed %d: delivered %v + idle %v = %v, want %v",
				seed, simtime.Duration(delivered), m.Stats().IdleTime, got, capacity)
		}
	}
}

// TestSFSInvariantsUnderMachine runs the full machine with a churny workload
// and validates the SFS structural invariants continuously.
func TestSFSInvariantsUnderMachine(t *testing.T) {
	s := core.New(2, core.WithQuantum(20*simtime.Millisecond))
	m := New(Config{CPUs: 2, Scheduler: s, Seed: 77})
	for i := 0; i < 10; i++ {
		w := float64(1 + i*3)
		m.Spawn(SpawnConfig{Name: "t", Weight: w, Behavior: BehaviorFunc(
			func(now simtime.Time, r *xrand.Rand) Step {
				return Step{
					Burst: simtime.Duration(1+r.Intn(60)) * simtime.Millisecond,
					Then:  ThenBlock,
					Sleep: simtime.Duration(r.Intn(40)) * simtime.Millisecond,
				}
			})})
	}
	failed := false
	m.Every(17*simtime.Millisecond, func(now simtime.Time) {
		if err := s.CheckInvariants(); err != nil && !failed {
			failed = true
			t.Errorf("invariants at %v: %v", now, err)
		}
	})
	m.Run(simtime.Time(10 * simtime.Second))
}

// TestRunSteadyStateAllocations pins what a dispatch costs the allocator once
// the population is in place: nothing. The event queue is a typed heap over
// []event (container/heap's Push(any)/Pop() any boxed every event twice), and
// the event a block schedules — the task's wakeup — is plain data instead of a
// closure, and a quantum's end is a field of its CPU's slot, not an event. The
// compute-bound set exercises the second; the blocking set adds block/wake
// churn through the scheduler's Add/Remove.
func TestRunSteadyStateAllocations(t *testing.T) {
	for name, blocking := range map[string]bool{"compute-bound": false, "block-wake": true} {
		t.Run(name, func(t *testing.T) {
			m := newSFSMachine(4, simtime.Millisecond)
			for i := range 64 {
				b := inf()
				if blocking && i%2 == 1 {
					b = BehaviorFunc(func(now simtime.Time, r *xrand.Rand) Step {
						return Step{Burst: 3 * simtime.Millisecond, Then: ThenBlock, Sleep: 5 * simtime.Millisecond}
					})
				}
				m.Spawn(SpawnConfig{Weight: float64(1 + i%7), Behavior: b})
			}
			until := simtime.Time(2 * simtime.Second)
			m.Run(until) // queues, scratch slices and the class table reach their size
			before := m.Stats().Dispatches
			perChunk := testing.AllocsPerRun(20, func() {
				until = until.Add(100 * simtime.Millisecond)
				m.Run(until)
			})
			if n := m.Stats().Dispatches - before; n < 21*300 {
				t.Fatalf("only %d dispatches in 21 chunks; the chunks measure nothing", n)
			}
			if perChunk != 0 {
				t.Errorf("%v allocations per 100 ms chunk (≈ 400 dispatches), want 0", perChunk)
			}
		})
	}
}

// TestQuantumEndKeepsTheEventOrder pins the order a CPU's planned quantum end
// takes among the queued events. The stop lives in its CPU's slot, not in the
// event heap, with the sequence number a queued event would have drawn, so
// the order is still one total order on (time, seq): a callback queued before
// the dispatch fires before the stop, one queued after it at the same instant
// fires after it, and of two CPUs' stops the earlier time — then the earlier
// dispatch — ends first. And since no stop is queued, no preemption, Kill or
// Run horizon leaves a stale entry in the heap: it holds exactly the pending
// wakes and callbacks.
func TestQuantumEndKeepsTheEventOrder(t *testing.T) {
	ms, sec := simtime.Millisecond, simtime.Second
	burst := func(d simtime.Duration) Behavior {
		return BehaviorFunc(func(simtime.Time, *xrand.Rand) Step { return Step{Burst: d, Then: ThenExit} })
	}
	t.Run("callbacks", func(t *testing.T) {
		m := newSFSMachine(1, 200*ms)
		var log []string
		m.Spawn(SpawnConfig{Name: "a", Behavior: burst(100 * ms),
			OnBurstEnd: func(simtime.Time) { log = append(log, "stop") }})
		m.At(simtime.Time(100*ms), func(now simtime.Time) {
			log = append(log, "queued before the dispatch")
			m.At(now, func(simtime.Time) { log = append(log, "queued after it") })
		})
		m.Run(simtime.Time(sec))
		want := []string{"queued before the dispatch", "stop", "queued after it"}
		if !slices.Equal(log, want) {
			t.Fatalf("same-instant order %q, want %q", log, want)
		}
	})
	t.Run("cpus", func(t *testing.T) {
		// a (CPU 0) ends at 50 ms and d takes CPU 0 until 100 ms, the instant
		// b (CPU 1, dispatched earlier) ends too: b's stop drew the lower seq.
		m := New(Config{CPUs: 2, Scheduler: core.New(2, core.WithQuantum(sec)),
			DisableWakePreemption: true, Seed: 1})
		var log []string
		for _, b := range []struct {
			name string
			d    simtime.Duration
		}{{"a", 50 * ms}, {"b", 100 * ms}, {"d", 50 * ms}} {
			m.Spawn(SpawnConfig{Name: b.name, Behavior: burst(b.d), OnBurstEnd: func(now simtime.Time) {
				log = append(log, fmt.Sprintf("%s@%v", b.name, now))
			}})
		}
		m.Run(simtime.Time(sec))
		want := []string{"a@0.05s", "b@0.1s", "d@0.1s"}
		if !slices.Equal(log, want) {
			t.Fatalf("stop order %q, want %q", log, want)
		}
	})
	t.Run("no stale entries", func(t *testing.T) {
		m := newSFSMachine(2, 200*ms)
		hogs := []*Task{
			m.Spawn(SpawnConfig{Name: "h0", Behavior: inf()}),
			m.Spawn(SpawnConfig{Name: "h1", Behavior: inf()}),
			m.Spawn(SpawnConfig{Name: "h2", Behavior: inf()}),
		}
		m.Spawn(SpawnConfig{Name: "io", Behavior: BehaviorFunc(func(simtime.Time, *xrand.Rand) Step {
			return Step{Burst: 2 * ms, Then: ThenBlock, Sleep: 30 * ms}
		})})
		killed := false
		m.At(simtime.Time(sec), func(simtime.Time) {
			for _, k := range hogs {
				if k.Thread().Running() {
					m.Kill(k)
					killed = true
					return
				}
			}
		})
		m.At(simtime.Time(100*sec), func(simtime.Time) {}) // still pending at every horizon
		for _, until := range []simtime.Duration{1500 * ms, 2 * sec, 2*sec + 7*ms} {
			m.Run(simtime.Time(until))
			pending := 1 // the far callback
			for _, b := range m.bursts {
				if b.t != nil && b.t.State == sched.Blocked {
					pending++
				}
			}
			if len(m.evq) != pending {
				t.Fatalf("at %v the heap holds %d entries, want %d pending wakes and callbacks", until, len(m.evq), pending)
			}
		}
		if !killed || m.Stats().Preemptions == 0 {
			t.Fatalf("killed a running task: %v, preemptions %d: the run covers neither", killed, m.Stats().Preemptions)
		}
	})
}
