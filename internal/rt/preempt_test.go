package rt_test

// Deterministic Manual-mode/FakeClock tests of cooperative wakeup preemption:
// the runtime's Figure 6(c) scenario. An interactive tenant (short burst,
// long think) wakes under full load from a pool of compute-bound hogs; with
// preemption enabled and a sched.Tagged policy (SFS), the wakeup flags the
// worst-ranked running slice, the cooperating hog yields at its next 1 ms
// checkpoint, and the interactive tenant dispatches within one preemption
// grant. Without preemption — or under time sharing, which implements no
// preemption order — the wakeup waits out the running slice. The same driver
// also pins the per-tenant preemption/resume/panic attribution and the
// zero-allocation guarantee of the flagged hot path.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sfsched/internal/rt"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/timeshare"
)

// latencyScenario drives the interactive-vs-hogs workload for 3 simulated
// seconds on 2 Manual workers with 1 ms cooperative checkpoints and returns
// the final per-tenant stats, with the interactive tenant's stat first.
func latencyScenario(t *testing.T, policy rt.Policy, preempt bool, hogs int) []rt.TenantStat {
	t.Helper()
	const (
		workers = 2
		grant   = simtime.Millisecond      // hog preemption-check granularity
		burst   = simtime.Millisecond      // interactive CPU burst per wake
		think   = 50 * simtime.Millisecond // interactive wake period
		steps   = 8000
	)
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{
		Workers: workers,
		Quantum: 20 * simtime.Millisecond,
		Policy:  policy,
		Clock:   clock,
		Intake:  rt.IntakeConfig{QueueCap: 4},
		Manual:  true,
		Preempt: preempt,
	})
	defer r.Close()
	interact, err := r.Register("interact", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hogs; i++ {
		hog, err := r.Register(fmt.Sprintf("hog%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		// One perpetual task: the driver completes it done=false, so it
		// stays at the backlog head like a burst spanning many quanta.
		if err := hog.SubmitTask(rt.Once(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	busy := make([]*rt.Dispatched, workers)
	end := make([]simtime.Time, workers)
	nextWake := simtime.Time(10 * simtime.Millisecond)
	for step := 0; step < steps; step++ {
		now := clock.Now()
		// Fill idle workers; an interactive slice ends after its burst,
		// a hog slice at quantum expiry.
		for w := 0; w < workers; w++ {
			if busy[w] != nil {
				continue
			}
			d := r.Dispatch(w)
			if d == nil {
				continue
			}
			busy[w] = d
			if d.Tenant() == interact {
				end[w] = now.Add(burst)
			} else {
				end[w] = now.Add(d.Slice())
			}
		}
		// The interactive tenant wakes mid-quantum, under full load.
		if now >= nextWake && interact.Queued() == 0 {
			if err := interact.SubmitTask(rt.Once(func() {})); err != nil {
				t.Fatal(err)
			}
			nextWake = now.Add(think)
		}
		clock.Advance(grant)
		now = clock.Now()
		for w := 0; w < workers; w++ {
			d := busy[w]
			if d == nil {
				continue
			}
			switch {
			case d.Tenant() == interact && now >= end[w]:
				busy[w] = nil
				d.Complete(true) // burst done; interactive blocks until next wake
			case d.Tenant() != interact && (now >= end[w] || d.Preempted()):
				// A cooperating hog yields at its 1 ms checkpoint when
				// flagged, and otherwise runs out its slice; either way its
				// work is unfinished and stays at the backlog head.
				busy[w] = nil
				d.Complete(false)
			}
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if stats[0].Name != "interact" {
		t.Fatalf("stats[0] is %q, want the interactive tenant", stats[0].Name)
	}
	return stats
}

// TestWakeupPreemptionLatency is the deterministic Figure 6(c) acceptance
// test: with 8 background hogs, interactive wake→dispatch p95 under SFS with
// preemption sits within one preemption grant (~1 ms), measurably below both
// SFS without preemption and time sharing, which both make the wakeup wait
// out a running slice.
func TestWakeupPreemptionLatency(t *testing.T) {
	const hogs = 8
	tsPolicy := func(cpus int) sched.Scheduler { return timeshare.New(cpus) }

	pre := latencyScenario(t, nil, true, hogs)
	nopre := latencyScenario(t, nil, false, hogs)
	ts := latencyScenario(t, tsPolicy, true, hogs)

	preP95 := pre[0].Wake.P95
	nopreP95 := nopre[0].Wake.P95
	tsP95 := ts[0].Wake.P95
	t.Logf("interactive wake p50/p95 (µs): sfs+preempt %d/%d, sfs %d/%d, timeshare %d/%d (wakes %d/%d/%d)",
		pre[0].Wake.P50, preP95, nopre[0].Wake.P50, nopreP95, ts[0].Wake.P50, tsP95,
		pre[0].Wake.Count, nopre[0].Wake.Count, ts[0].Wake.Count)
	// Time sharing's 200 ms hog slices stretch the interactive cycle, so it
	// accumulates fewer wakes over the same horizon — itself evidence of the
	// degradation, but keep enough samples for a meaningful p95.
	if pre[0].Wake.Count < 100 || nopre[0].Wake.Count < 100 || ts[0].Wake.Count < 40 {
		t.Fatalf("degenerate scenario: too few interactive wakes (%d/%d/%d)",
			pre[0].Wake.Count, nopre[0].Wake.Count, ts[0].Wake.Count)
	}
	// Within one preemption grant (1 ms), plus the histogram's ≤25% bucket
	// overestimate.
	if limit := simtime.Duration(1250 * simtime.Microsecond); preP95 > limit {
		t.Errorf("sfs+preempt wake p95 %v exceeds one preemption grant (%v)", preP95, limit)
	}
	// Without preemption the wakeup waits for a quantum expiry.
	if nopreP95 < 4*simtime.Millisecond {
		t.Errorf("sfs-without-preemption wake p95 %v implausibly low — preemption leaked in?", nopreP95)
	}
	if tsP95 < 4*simtime.Millisecond {
		t.Errorf("timeshare wake p95 %v implausibly low — it has no preemption order", tsP95)
	}
	if preP95*2 >= nopreP95 || preP95*2 >= tsP95 {
		t.Errorf("preemption did not measurably collapse p95: %v vs %v (sfs) and %v (timeshare)",
			preP95, nopreP95, tsP95)
	}

	// Attribution: only hogs are preempted and resumed; the interactive
	// tenant is never flagged, and preemptions happen only where enabled
	// with a Tagged policy.
	sumPre := func(stats []rt.TenantStat) (total int64) {
		for _, s := range stats[1:] {
			total += s.Preemptions
		}
		return total
	}
	if pre[0].Preemptions != 0 || pre[0].Resumes != 0 {
		t.Errorf("interactive tenant shows %d preemptions / %d resumes, want 0/0",
			pre[0].Preemptions, pre[0].Resumes)
	}
	if got := sumPre(pre); got == 0 {
		t.Error("no hog preemptions recorded under sfs+preempt")
	}
	if got := sumPre(nopre); got != 0 {
		t.Errorf("%d preemptions recorded with preemption disabled", got)
	}
	if got := sumPre(ts); got != 0 {
		t.Errorf("%d preemptions recorded under timeshare (not sched.Tagged)", got)
	}
	for _, s := range pre[1:] {
		if s.Resumes == 0 {
			t.Errorf("hog %s shows no continuation dispatches", s.Name)
		}
	}
}

// TestPreemptionFlagDeterministic pins the Manual-mode mechanics: a wakeup
// under full load flags exactly the worst-ranked running slice, the flag is
// visible through Dispatched.Preempted, and it dies with the slice. hogB
// starts 2 ms after hogA, so at the wakeup hogA's projected rank (its whole
// 3 ms of in-flight service) strictly exceeds hogB's 1 ms — two hogs running
// since the same instant would tie by SFS's own fairness.
func TestPreemptionFlagDeterministic(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 2, Quantum: 20 * simtime.Millisecond,
		Clock: clock, Manual: true, Preempt: true,
		Intake: rt.IntakeConfig{QueueCap: 4}})
	defer r.Close()
	hogA, _ := r.Register("hogA", 1)
	hogB, _ := r.Register("hogB", 1)
	sleeper, _ := r.Register("sleeper", 1)
	if err := hogA.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	dA := r.Dispatch(0)
	if dA == nil || dA.Tenant() != hogA {
		t.Fatalf("worker 0 got %+v, want hogA", dA)
	}
	clock.Advance(2 * simtime.Millisecond)
	// hogB wakes with a worker idle: absorbed without raising any flag.
	if err := hogB.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	if dA.Preempted() {
		t.Fatal("wakeup with an idle worker raised a preemption flag")
	}
	dB := r.Dispatch(1)
	if dB == nil || dB.Tenant() != hogB {
		t.Fatalf("worker 1 got %+v, want hogB", dB)
	}
	clock.Advance(simtime.Millisecond)
	if dA.Preempted() || dB.Preempted() {
		t.Fatal("flags raised before any full-load wakeup")
	}
	// Full-load wakeup: hogA (3 ms in flight) out-ranks hogB (1 ms) and
	// must take the flag; hogB keeps running.
	if err := sleeper.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	if !dA.Preempted() {
		t.Fatal("worst-ranked slice (hogA) not flagged")
	}
	if dB.Preempted() {
		t.Fatal("hogB flagged although hogA ranks worse")
	}
	// The cooperating hog yields; the freed worker's next pick is the woken
	// tenant, and the fresh slice starts with a clean flag.
	clock.Advance(simtime.Millisecond)
	dA.Complete(false)
	d := r.Dispatch(0)
	if d == nil || d.Tenant() != sleeper {
		t.Fatalf("post-yield dispatch got %v, want the woken sleeper", d.Tenant().Name())
	}
	if d.Preempted() {
		t.Fatal("preemption flag leaked into the next slice")
	}
	clock.Advance(simtime.Millisecond)
	d.Complete(true)
	// hogA's unfinished task resumes and is counted as a continuation.
	d = r.Dispatch(0)
	if d == nil || d.Tenant() != hogA {
		t.Fatalf("expected hogA's continuation, got %v", d.Tenant().Name())
	}
	clock.Advance(simtime.Millisecond)
	d.Complete(false)
	stats := r.Stats()
	byName := map[string]rt.TenantStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["hogA"].Preemptions != 1 || byName["hogB"].Preemptions != 0 {
		t.Errorf("preemption attribution wrong: hogA %d, hogB %d",
			byName["hogA"].Preemptions, byName["hogB"].Preemptions)
	}
	if byName["hogA"].Resumes == 0 {
		t.Error("hogA's preempted continuation not counted as a resume")
	}
	if byName["sleeper"].Resumes != 0 || byName["sleeper"].Preemptions != 0 {
		t.Errorf("sleeper shows %d resumes / %d preemptions, want 0/0",
			byName["sleeper"].Resumes, byName["sleeper"].Preemptions)
	}
	ss := r.ShardStats()
	if ss[0].Preemptions != 1 {
		t.Errorf("shard preemption counter %d, want 1", ss[0].Preemptions)
	}
	if ss[0].Wake.Count == 0 || ss[0].Dispatch.Count == 0 {
		t.Error("shard latency histograms recorded nothing")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptibleTaskConcurrent runs real PreemptibleTask hogs on live
// workers: an interactive tenant's wakeups must flag hogs, the hogs must
// observe Preempted() through their SliceCtx and yield, and the counters must
// line up — the concurrent half of what the Manual tests pin deterministically.
func TestPreemptibleTaskConcurrent(t *testing.T) {
	r := rt.New(rt.Config{Workers: 2, Quantum: 50 * simtime.Millisecond,
		Preempt: true,
		Intake:  rt.IntakeConfig{QueueCap: 4}})
	defer r.Close()
	var yields sync.Map // hog name → observed a raised flag
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("hog%d", i)
		hog, err := r.Register(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := hog.SubmitTask(nil, rt.Preemptible(func(ctx rt.SliceCtx) bool {
			deadline := time.Now().Add(ctx.Slice().Std())
			for time.Now().Before(deadline) {
				if ctx.Preempted() {
					yields.Store(name, true)
					return false
				}
				spin(100 * time.Microsecond)
			}
			return false
		})); err != nil {
			t.Fatal(err)
		}
	}
	interact, err := r.Register("interact", 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1)
	for i := 0; i < 40; i++ {
		if err := interact.SubmitTask(rt.Once(func() { done <- struct{}{} })); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("interactive task never dispatched — preemption path wedged?")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stats := r.Stats()
	var flagged, yielded int64
	for _, s := range stats {
		if s.Name == "interact" {
			if s.Preemptions != 0 {
				t.Errorf("interactive tenant flagged %d times", s.Preemptions)
			}
			if s.Wake.Count == 0 {
				t.Error("interactive wake latency never recorded")
			}
			continue
		}
		flagged += s.Preemptions
	}
	yields.Range(func(_, _ any) bool { yielded++; return true })
	if flagged == 0 {
		t.Error("no hog was ever flagged for preemption")
	}
	if yielded == 0 {
		t.Error("no hog ever observed Preempted() through its SliceCtx")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchHotPathZeroAlloc pins the 0 allocs/op guarantee of the dispatch
// pipeline with the preemption flag in the hot path: a wakeup that raises a
// preemption flag, a preempted completion, and the woken tenant's
// dispatch+complete cycle allocate nothing.
func TestDispatchHotPathZeroAlloc(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 1, Quantum: 10 * simtime.Millisecond,
		Clock: clock, Manual: true, Preempt: true,
		Intake: rt.IntakeConfig{QueueCap: 4}})
	defer r.Close()
	hog, _ := r.Register("hog", 1)
	blinker, _ := r.Register("blinker", 1)
	if err := hog.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	task := rt.Once(func() {})
	cycle := func() {
		d := r.Dispatch(0) // the hog (perpetual continuation)
		if err := blinker.SubmitTask(task); err != nil {
			t.Fatal(err)
		}
		clock.Advance(simtime.Millisecond)
		d.Complete(false) // hog yields to the flagged preemption
		d = r.Dispatch(0) // the woken blinker
		clock.Advance(simtime.Millisecond)
		d.Complete(true) // blinker blocks again
	}
	for i := 0; i < 100; i++ {
		cycle() // warm up free-lists and queue capacity
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("dispatch pipeline with preemption allocates %.1f per cycle, want 0", n)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
