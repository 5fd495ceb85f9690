package rt_test

// Differential baseline test: under an identical deterministic workload, the
// wall-clock runtime driven by a fake clock must reproduce the simulated
// machine's scheduling trace event-for-event — same charge sequence (tenant,
// duration), same final service — so the runtime's decisions are verifiably
// the paper's. The driver below replays the machine's event-loop semantics
// (FIFO tie-break at equal instants, CPUs filled in index order, settle at
// the horizon) through the runtime's own Dispatch/Complete path, the same
// code the concurrent workers execute.

import (
	"container/heap"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/engine"
	"sfsched/internal/machine"
	"sfsched/internal/rt"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// chargeEvent is one service-accounting record: which thread, how much.
type chargeEvent struct {
	id  int
	ran simtime.Duration
}

// tenantScript is one tenant's deterministic workload: cycle through bursts
// separated by the matching sleeps; a burst of simtime.Infinity computes
// forever.
type tenantScript struct {
	name   string
	weight float64
	bursts []simtime.Duration
	sleeps []simtime.Duration
}

func (sc tenantScript) burst(i int) simtime.Duration { return sc.bursts[i%len(sc.bursts)] }
func (sc tenantScript) sleep(i int) simtime.Duration { return sc.sleeps[i%len(sc.sleeps)] }

// machineTrace runs the scripts on the simulated machine and returns the
// engine decision trace, the charge sequence read off it (every interim and
// settlement charge, in order) and the final per-thread service.
func machineTrace(t *testing.T, p int, q simtime.Duration, scripts []tenantScript, horizon simtime.Time) ([]chargeEvent, map[int]simtime.Duration, []engine.Event) {
	t.Helper()
	m := machine.New(machine.Config{
		CPUs:                  p,
		Scheduler:             core.New(p, core.WithQuantum(q)),
		DisableWakePreemption: true,
	})
	dec := &decisionLog{}
	m.SetDecisionRecorder(dec)
	tasks := make([]*machine.Task, len(scripts))
	for i, sc := range scripts {
		sc := sc
		idx := 0
		tasks[i] = m.Spawn(machine.SpawnConfig{
			Name:   sc.name,
			Weight: sc.weight,
			Behavior: machine.BehaviorFunc(func(now simtime.Time, r *xrand.Rand) machine.Step {
				b, s := sc.burst(idx), sc.sleep(idx)
				idx++
				if b >= simtime.Infinity {
					return machine.Step{Burst: simtime.Infinity}
				}
				return machine.Step{Burst: b, Then: machine.ThenBlock, Sleep: s}
			}),
		})
	}
	m.Run(horizon)
	var charges []chargeEvent
	for _, e := range dec.events {
		if e.Kind == engine.KindInterim || e.Kind == engine.KindSettle {
			charges = append(charges, chargeEvent{e.ID, e.Ran})
		}
	}
	services := make(map[int]simtime.Duration)
	for _, k := range tasks {
		services[k.Thread().ID] = k.Thread().Service
	}
	return charges, services, dec.events
}

// driverEvent mirrors the machine's event queue entries: fire at an instant,
// FIFO among equal instants.
type driverEvent struct {
	at  simtime.Time
	seq uint64
	fn  func()
}

type driverQueue []driverEvent

func (h driverQueue) Len() int { return len(h) }
func (h driverQueue) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h driverQueue) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *driverQueue) Push(x any)   { *h = append(*h, x.(driverEvent)) }
func (h *driverQueue) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// runtimeTrace replays the same scripts through the runtime in Manual mode
// with a fake clock, returning the charge sequence and final services. With
// preempt set, cooperative wakeup preemption is armed: wakeups raise flags on
// running slices, but this driver's modelled tasks never poll them — pinning
// that flag raising alone (the Add/Pick/Charge pipeline with the preemption
// hook in place) leaves the decision trace untouched.
func runtimeTrace(t *testing.T, p int, q simtime.Duration, scripts []tenantScript, horizon simtime.Time, preempt bool) ([]chargeEvent, map[int]simtime.Duration, []engine.Event) {
	t.Helper()
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{
		Workers:  p,
		Policy:   func(cpus int) sched.Scheduler { return core.New(cpus, core.WithQuantum(q)) },
		Clock:    clock,
		Manual:   true,
		QueueCap: 4,
		Preempt:  preempt,
	})
	dec := &decisionLog{}
	r.SetDecisionRecorder(0, dec)
	type tstate struct {
		tn  *rt.Tenant
		sc  tenantScript
		idx int              // index of the burst currently loaded
		rem simtime.Duration // CPU left in the current burst
	}
	states := make([]*tstate, len(scripts))
	byTenant := make(map[*rt.Tenant]*tstate)
	for i, sc := range scripts {
		tn, err := r.Register(sc.name, sc.weight)
		if err != nil {
			t.Fatalf("register %s: %v", sc.name, err)
		}
		states[i] = &tstate{tn: tn, sc: sc}
		byTenant[tn] = states[i]
	}

	var (
		evq     driverQueue
		seq     uint64
		busy    = make([]*rt.Dispatched, p)
		startAt = make([]simtime.Time, p)
		planned = make([]simtime.Duration, p)
		charges []chargeEvent
	)
	push := func(at simtime.Time, fn func()) {
		seq++
		heap.Push(&evq, driverEvent{at: at, seq: seq, fn: fn})
	}
	// loadBurst models a wakeup/arrival: the burst becomes the tenant's next
	// unit of work. The submitted closure is a placeholder — in Manual mode
	// the driver performs the "work" by advancing the fake clock and passes
	// the done verdict to Complete itself.
	loadBurst := func(ts *tstate) {
		ts.rem = ts.sc.burst(ts.idx)
		if err := ts.tn.SubmitTask(rt.Once(func() {})); err != nil {
			t.Fatalf("submit %s: %v", ts.sc.name, err)
		}
	}
	var endSlice func(w int)
	// dispatchAll fills idle workers in index order, as machine.schedule
	// fills idle CPUs.
	dispatchAll := func() {
		for w := 0; w < p; w++ {
			if busy[w] != nil {
				continue
			}
			d := r.Dispatch(w)
			if d == nil {
				continue
			}
			ts := byTenant[d.Tenant()]
			runFor := d.Slice()
			if ts.rem < runFor {
				runFor = ts.rem
			}
			busy[w] = d
			startAt[w] = clock.Now()
			planned[w] = runFor
			w := w
			push(clock.Now().Add(runFor), func() { endSlice(w) })
		}
	}
	endSlice = func(w int) {
		d := busy[w]
		busy[w] = nil
		ts := byTenant[d.Tenant()]
		ts.rem -= planned[w]
		done := ts.rem == 0
		ran := d.Complete(done)
		charges = append(charges, chargeEvent{ts.tn.Thread().ID, ran})
		if done {
			s := ts.sc.sleep(ts.idx)
			ts.idx++
			ts := ts
			push(clock.Now().Add(s), func() { loadBurst(ts); dispatchAll() })
		}
		dispatchAll()
	}

	// Arrivals at t=0, in registration order: the machine processes each
	// arrival (Add + schedule) before the next, so the first tenants grab
	// the workers before later tenants are known.
	for _, ts := range states {
		loadBurst(ts)
		dispatchAll()
	}
	for evq.Len() > 0 && evq[0].at <= horizon {
		e := heap.Pop(&evq).(driverEvent)
		clock.Set(e.at)
		e.fn()
	}
	// Settle in worker order, as machine.Run settles in-flight quanta so
	// service is exact at the horizon.
	clock.Set(horizon)
	for w := 0; w < p; w++ {
		d := busy[w]
		if d == nil {
			continue
		}
		busy[w] = nil
		ts := byTenant[d.Tenant()]
		elapsed := horizon.Sub(startAt[w])
		ts.rem -= elapsed
		ran := d.Complete(ts.rem == 0)
		charges = append(charges, chargeEvent{ts.tn.Thread().ID, ran})
	}
	services := make(map[int]simtime.Duration)
	for _, ts := range states {
		services[ts.tn.Thread().ID] = ts.tn.Thread().Service
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("invariants after run: %v", err)
	}
	r.Close()
	return charges, services, dec.events
}

func goldenScenarios() []struct {
	name    string
	cpus    int
	quantum simtime.Duration
	horizon simtime.Time
	scripts []tenantScript
} {
	inf := []simtime.Duration{simtime.Infinity}
	no := []simtime.Duration{0}
	ms := simtime.Millisecond
	return []struct {
		name    string
		cpus    int
		quantum simtime.Duration
		horizon simtime.Time
		scripts []tenantScript
	}{
		{
			// Compute-bound tenants with an infeasible weight: exercises
			// readjustment and steady quantum rotation.
			name: "smp2-infeasible", cpus: 2, quantum: 20 * ms,
			horizon: simtime.Time(5 * simtime.Second),
			scripts: []tenantScript{
				{"light", 1, inf, no},
				{"heavy", 50, inf, no},
				{"mid", 4, inf, no},
				{"low", 2, inf, no},
			},
		},
		{
			// Blocking tenants: bursts spanning multiple quanta, sleeps
			// desynchronizing the workers, wakeups mid-quantum.
			name: "smp2-blocking", cpus: 2, quantum: 20 * ms,
			horizon: simtime.Time(5 * simtime.Second),
			scripts: []tenantScript{
				{"inf1", 1, inf, no},
				{"inf4", 4, inf, no},
				{"period", 3, []simtime.Duration{30 * ms}, []simtime.Duration{45 * ms}},
				{"bursty", 1, []simtime.Duration{15 * ms, 70 * ms}, []simtime.Duration{25 * ms, 60 * ms}},
			},
		},
		{
			// Wider machine, finer quantum, more tenants than workers.
			name: "smp3-mixed", cpus: 3, quantum: 10 * ms,
			horizon: simtime.Time(3 * simtime.Second),
			scripts: []tenantScript{
				{"a", 5, inf, no},
				{"b", 1, inf, no},
				{"c", 2, []simtime.Duration{25 * ms}, []simtime.Duration{10 * ms}},
				{"d", 8, []simtime.Duration{100 * ms}, []simtime.Duration{30 * ms}},
				{"e", 1, []simtime.Duration{5 * ms}, []simtime.Duration{5 * ms}},
				{"f", 3, inf, no},
			},
		},
	}
}

// TestGoldenRuntimeVsMachine pins the runtime's decision pipeline to the
// simulated machine's: identical charge traces and identical final service,
// microsecond for microsecond. Each scenario runs twice, with wakeup
// preemption disarmed and armed: preemption is cooperative, so raised flags
// that no task acts on must leave the SFS golden trace bit-identical.
func TestGoldenRuntimeVsMachine(t *testing.T) {
	for _, sc := range goldenScenarios() {
		for _, preempt := range []bool{false, true} {
			name := sc.name
			if preempt {
				name += "/preempt-armed"
			}
			t.Run(name, func(t *testing.T) {
				mc, ms, _ := machineTrace(t, sc.cpus, sc.quantum, sc.scripts, sc.horizon)
				rc, rs, _ := runtimeTrace(t, sc.cpus, sc.quantum, sc.scripts, sc.horizon, preempt)
				if len(mc) < 100 {
					t.Fatalf("degenerate scenario: only %d charges", len(mc))
				}
				n := len(mc)
				if len(rc) < n {
					n = len(rc)
				}
				for i := 0; i < n; i++ {
					if mc[i] != rc[i] {
						t.Fatalf("traces diverge at charge %d: machine %+v, runtime %+v",
							i, mc[i], rc[i])
					}
				}
				if len(mc) != len(rc) {
					t.Fatalf("charge counts differ: machine %d, runtime %d", len(mc), len(rc))
				}
				for id, want := range ms {
					if got := rs[id]; got != want {
						t.Fatalf("service of thread %d: machine %v, runtime %v", id, want, got)
					}
				}
			})
		}
	}
}
