package rt_test

// Deterministic Manual-mode/FakeClock tests of involuntary slice enforcement
// (enforcer.go), plus one concurrent test with a genuinely wedged closure.
// The Manual driver models non-cooperating tasks — plain Tasks whose closures
// run a fixed wall time regardless of their granted slice — and checks that
// enforcement bounds interactive wake latency where the cooperative-only
// runtime could not, that interim charging keeps tags fresh mid-slice, and
// that every counter attributes the handoffs to the right tenant.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// TestEnforcementHandoffMechanics walks the enforcement state machine
// deterministically: interim charges advance tags mid-slice, deadline expiry
// flags a preemptible slice but involuntarily hands off a plain one, the
// freed slot dispatches other tenants while the hog's closure is still out,
// and the detached slice's late Complete charges the overrun and re-admits
// the tenant.
func TestEnforcementHandoffMechanics(t *testing.T) {
	const tick = simtime.Millisecond
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 2, Quantum: 20 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true, Preempt: true,
		Enforce: true, EnforceTick: tick})
	defer r.Close()
	hog, _ := r.Register("hog", 1)
	poll, _ := r.Register("poll", 1)
	sleeper, _ := r.Register("sleeper", 1)
	if err := hog.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	if err := poll.SubmitTask(nil, rt.Preemptible(func(rt.SliceCtx) bool { return false })); err != nil {
		t.Fatal(err)
	}
	dHog := r.Dispatch(0)
	dPoll := r.Dispatch(1)
	if dHog == nil || dHog.Tenant() != hog || dPoll == nil || dPoll.Tenant() != poll {
		t.Fatalf("setup dispatches wrong: %v / %v", dHog, dPoll)
	}

	// Mid-slice: an enforcement pass interim-charges both slices, so the
	// tenants' service (and tags) reflect the 5 ms already consumed — the
	// stale-tag fix observable through Stats long before any Complete.
	clock.Advance(5 * simtime.Millisecond)
	r.Enforce()
	if dHog.Detached() || dPoll.Detached() || dHog.Preempted() || dPoll.Preempted() {
		t.Fatal("enforcement acted before any deadline")
	}
	for _, s := range r.Stats() {
		if s.Name == "sleeper" {
			continue
		}
		if s.Service != 5*simtime.Millisecond {
			t.Errorf("%s mid-slice service %v, want 5ms interim-charged", s.Name, s.Service)
		}
	}

	// Past both 20 ms deadlines: the preemptible slice is flagged (it can
	// yield), the plain slice is handed off (it cannot even look).
	clock.Advance(16 * simtime.Millisecond) // now = 21 ms
	r.Enforce()
	if !dPoll.Preempted() || dPoll.Detached() {
		t.Fatalf("preemptible slice: preempted=%v detached=%v, want flagged only",
			dPoll.Preempted(), dPoll.Detached())
	}
	if !dHog.Detached() {
		t.Fatal("plain slice not handed off at its deadline")
	}
	if r.Handoffs() != 1 {
		t.Fatalf("runtime handoff counter %d, want 1", r.Handoffs())
	}

	// The hog's worker slot is free while its closure runs out of band: a
	// wakeup dispatches there immediately.
	if err := sleeper.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	dSleep := r.Dispatch(0)
	if dSleep == nil || dSleep.Tenant() != sleeper {
		t.Fatalf("freed slot dispatched %v, want the sleeper", dSleep)
	}
	for _, s := range r.Stats() {
		if s.Name == "hog" {
			if !s.Running {
				t.Error("detached hog not reported Running")
			}
			if s.Handoffs != 1 {
				t.Errorf("hog handoff attribution %d, want 1", s.Handoffs)
			}
		}
	}

	// The flagged preemptible task yields at its next checkpoint.
	clock.Advance(simtime.Millisecond) // 22 ms
	dPoll.Complete(false)
	clock.Advance(simtime.Millisecond) // 23 ms
	dSleep.Complete(true)

	// The hog's closure finally returns at 30 ms: 10 ms past its 20 ms slice.
	// Complete charges the post-handoff remainder and re-admits the tenant.
	clock.Advance(7 * simtime.Millisecond)
	dHog.Complete(false)
	for _, s := range r.Stats() {
		if s.Name == "hog" {
			if s.Service != 30*simtime.Millisecond {
				t.Errorf("hog charged %v across the handoff, want the full 30ms", s.Service)
			}
			if s.Running {
				t.Error("hog still Running after its detached Complete")
			}
		}
	}
	ss := r.ShardStats()[0]
	if ss.Handoffs != 1 || ss.EnforceFlags != 1 {
		t.Errorf("shard handoffs/enforceFlags %d/%d, want 1/1", ss.Handoffs, ss.EnforceFlags)
	}
	if ss.Interims < 2 {
		t.Errorf("shard interim installments %d, want ≥ 2", ss.Interims)
	}
	if ss.Overrun.Count != 1 || ss.Overrun.Max < 10*simtime.Millisecond {
		t.Errorf("overrun histogram count=%d max=%v, want one ≥10ms sample",
			ss.Overrun.Count, ss.Overrun.Max)
	}
	// The re-admitted hog contends again: its unfinished task redispatches.
	d := r.Dispatch(0)
	if d == nil {
		t.Fatal("nothing dispatchable after the hog's re-admission")
	}
	clock.Advance(simtime.Millisecond)
	d.Complete(false)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Unregister while detached: the tenant drains through its out-of-band
	// Complete instead of being finalized under the closure's feet.
	d = dispatchTenant(t, r, clock, hog)
	clock.Advance(25 * simtime.Millisecond)
	r.Enforce()
	if !d.Detached() {
		t.Fatal("second hog slice not handed off")
	}
	if err := r.Unregister(hog); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * simtime.Millisecond)
	d.Complete(false) // closure returns; closing tenant finalizes here
	for _, s := range r.Stats() {
		if s.Name == "hog" {
			t.Error("unregistered hog still in Stats after its detached Complete")
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// dispatchTenant dispatches workers until the wanted tenant's slice appears,
// completing (unfinished) anything else it dredges up.
func dispatchTenant(t *testing.T, r *rt.Runtime, clock *rt.FakeClock, want *rt.Tenant) *rt.Dispatched {
	t.Helper()
	for i := 0; i < 16; i++ {
		d := r.Dispatch(0)
		if d == nil {
			t.Fatal("nothing dispatchable")
		}
		if d.Tenant() == want {
			return d
		}
		clock.Advance(simtime.Millisecond)
		d.Complete(false)
	}
	t.Fatal("wanted tenant never dispatched")
	return nil
}

// TestEnforcementFlagAcceleration pins the bounded-wake path: a plain-Task
// slice flagged by wakeup preemption cannot observe the flag, so the next
// enforcement pass hands it off ahead of its deadline, and the woken tenant
// dispatches within two ticks of its Submit.
func TestEnforcementFlagAcceleration(t *testing.T) {
	const tick = simtime.Millisecond
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 1, Quantum: 20 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true, Preempt: true,
		Enforce: true, EnforceTick: tick})
	defer r.Close()
	hog, _ := r.Register("hog", 1)
	sleeper, _ := r.Register("sleeper", 1)
	if err := hog.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	d := r.Dispatch(0)
	clock.Advance(2 * simtime.Millisecond)
	// Full-load wakeup flags the hog; the flag alone is useless to a plain
	// Task, so enforcement must convert it into a handoff.
	if err := sleeper.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	if !d.Preempted() {
		t.Fatal("full-load wakeup did not flag the running plain slice")
	}
	clock.Advance(tick)
	r.Enforce()
	if !d.Detached() {
		t.Fatal("flagged plain slice not handed off at the next enforcement pass, 17ms before its deadline")
	}
	dS := r.Dispatch(0)
	if dS == nil || dS.Tenant() != sleeper {
		t.Fatalf("freed lane dispatched %v, want the woken sleeper", dS)
	}
	clock.Advance(simtime.Millisecond)
	dS.Complete(true)
	clock.Advance(10 * simtime.Millisecond)
	d.Complete(true)
	st := r.Stats()
	for _, s := range st {
		if s.Name == "sleeper" && s.Wake.Max > 2*tick {
			t.Errorf("sleeper wake latency %v, want ≤ 2 ticks", s.Wake.Max)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// enforceLatencyScenario drives the §5-closure acceptance workload: 8
// never-yielding plain-Task hogs (each closure burns 50 ms of model time,
// deaf to slices and flags) against one interactive tenant on 2 workers. It
// returns the final stats (interactive first), the total handoff count, and a
// deterministic event trace for replay comparison.
func enforceLatencyScenario(t *testing.T, enforce bool) ([]rt.TenantStat, int64, []string) {
	t.Helper()
	const (
		workers = 2
		hogs    = 8
		tick    = simtime.Millisecond
		hogRun  = 50 * simtime.Millisecond // closure wall time per dispatch
		burst   = simtime.Millisecond
		think   = 10 * simtime.Millisecond
		steps   = 6000
	)
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: workers, Quantum: 20 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true, Preempt: true,
		Enforce: enforce, EnforceTick: tick})
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
		if err := hog.SubmitTask(rt.Once(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	var trace []string
	busy := make([]*rt.Dispatched, workers)
	end := make([]simtime.Time, workers)
	type outOfBand struct {
		d     *rt.Dispatched
		endAt simtime.Time
	}
	var detached []outOfBand
	nextWake := simtime.Time(10 * simtime.Millisecond)
	for step := 0; step < steps; step++ {
		now := clock.Now()
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
				end[w] = now.Add(hogRun) // the closure ignores its slice
			}
			trace = append(trace, fmt.Sprintf("%d dispatch w%d %s", now, w, d.Tenant().Name()))
		}
		if now >= nextWake && interact.Queued() == 0 {
			if err := interact.SubmitTask(rt.Once(func() {})); err != nil {
				t.Fatal(err)
			}
			nextWake = now.Add(think)
		}
		clock.Advance(tick)
		r.Enforce() // no-op unless armed
		now = clock.Now()
		for w := 0; w < workers; w++ {
			d := busy[w]
			if d == nil {
				continue
			}
			if d.Detached() {
				// The enforcer confiscated the lane mid-closure; the closure
				// keeps burning until its scripted end.
				detached = append(detached, outOfBand{d, end[w]})
				busy[w] = nil
				trace = append(trace, fmt.Sprintf("%d handoff w%d %s", now, w, d.Tenant().Name()))
				continue
			}
			if now >= end[w] {
				busy[w] = nil
				d.Complete(d.Tenant() == interact)
			}
		}
		keep := detached[:0]
		for _, ob := range detached {
			if now >= ob.endAt {
				ob.d.Complete(false) // closure finally returns
			} else {
				keep = append(keep, ob)
			}
		}
		detached = keep
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if stats[0].Name != "interact" {
		t.Fatalf("stats[0] is %q, want the interactive tenant", stats[0].Name)
	}
	return stats, r.Handoffs(), trace
}

// TestEnforcementWakeLatency is the acceptance test for the PR: against 8
// never-yielding hogs under SFS, armed enforcement bounds the interactive
// wake p99 by two enforcement ticks (flag at the wakeup, handoff at the next
// pass, dispatch on the freed lane); disarmed, the same workload leaves the
// wakeup waiting out 50 ms closures.
func TestEnforcementWakeLatency(t *testing.T) {
	const tick = simtime.Millisecond
	armed, handoffs, _ := enforceLatencyScenario(t, true)
	disarmed, noHandoffs, _ := enforceLatencyScenario(t, false)

	armedP99 := armed[0].Wake.P99
	disarmedP99 := disarmed[0].Wake.P99
	t.Logf("interactive wake p50/p99 (µs): enforced %d/%d (handoffs %d), disarmed %d/%d (wakes %d/%d)",
		armed[0].Wake.P50, armedP99, handoffs, disarmed[0].Wake.P50, disarmedP99,
		armed[0].Wake.Count, disarmed[0].Wake.Count)
	// The disarmed run accumulates far fewer wakes over the same horizon —
	// each one waits out most of a 50 ms closure, stretching the interactive
	// cycle; itself evidence of the degradation, but keep enough samples for
	// a meaningful p99.
	if armed[0].Wake.Count < 100 || disarmed[0].Wake.Count < 40 {
		t.Fatalf("degenerate scenario: too few interactive wakes (%d/%d)",
			armed[0].Wake.Count, disarmed[0].Wake.Count)
	}
	// Two enforcement ticks, plus the histogram's ≤25% bucket overestimate.
	if limit := simtime.Duration(2500 * simtime.Microsecond); armedP99 > limit {
		t.Errorf("enforced wake p99 %v exceeds 2×tick (%v)", armedP99, limit)
	}
	if disarmedP99 < 5*simtime.Millisecond {
		t.Errorf("disarmed wake p99 %v implausibly low against 50ms closures", disarmedP99)
	}
	if armedP99*5 >= disarmedP99 {
		t.Errorf("enforcement did not collapse the wake tail: %v vs %v", armedP99, disarmedP99)
	}
	if handoffs == 0 {
		t.Error("no handoffs recorded in the armed run")
	}
	if noHandoffs != 0 {
		t.Errorf("%d handoffs recorded with enforcement disarmed", noHandoffs)
	}
	// Only hogs are handed off, and the interactive tenant never is.
	if armed[0].Handoffs != 0 {
		t.Errorf("interactive tenant shows %d handoffs", armed[0].Handoffs)
	}
	var hogHandoffs int64
	for _, s := range armed[1:] {
		hogHandoffs += s.Handoffs
	}
	if hogHandoffs != handoffs {
		t.Errorf("per-tenant handoffs sum to %d, runtime counted %d", hogHandoffs, handoffs)
	}
}

// TestEnforcementArmedDeterministic replays the armed acceptance scenario
// twice and requires identical dispatch/handoff traces and identical final
// accounting: enforcement decisions (expiry order, flag acceleration,
// detachments) are deterministic under a FakeClock.
func TestEnforcementArmedDeterministic(t *testing.T) {
	statsA, handoffsA, traceA := enforceLatencyScenario(t, true)
	statsB, handoffsB, traceB := enforceLatencyScenario(t, true)
	if handoffsA != handoffsB {
		t.Fatalf("handoff counts diverge: %d vs %d", handoffsA, handoffsB)
	}
	if len(traceA) != len(traceB) {
		t.Fatalf("trace lengths diverge: %d vs %d", len(traceA), len(traceB))
	}
	for i := range traceA {
		if traceA[i] != traceB[i] {
			t.Fatalf("traces diverge at event %d: %q vs %q", i, traceA[i], traceB[i])
		}
	}
	for i := range statsA {
		a, b := statsA[i], statsB[i]
		if a.Name != b.Name || a.Service != b.Service || a.Handoffs != b.Handoffs ||
			a.Preemptions != b.Preemptions || a.Resumes != b.Resumes {
			t.Fatalf("final accounting diverges for %s: %+v vs %+v", a.Name, a, b)
		}
	}
}

// TestEnforcementConcurrentHandoff wedges the only worker with a closure
// blocked on a channel — the hardest non-cooperator — and requires the live
// enforcer to hand it off so interactive tasks run on the handoff's fresh
// worker while the hog is still blocked. Without enforcement this workload deadlocks the
// interactive tenant until the hog is released.
func TestEnforcementConcurrentHandoff(t *testing.T) {
	r := rt.New(rt.Config{Workers: 1, Quantum: 5 * simtime.Millisecond,
		QueueCap: 8, Preempt: true, Enforce: true,
		EnforceTick: 2 * simtime.Millisecond})
	defer r.Close()
	hog, err := r.Register("hog", 1)
	if err != nil {
		t.Fatal(err)
	}
	interact, err := r.Register("interact", 1)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	if err := hog.SubmitTask(func(simtime.Duration) bool {
		close(started)
		<-release
		return true
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("hog never dispatched")
	}
	done := make(chan struct{}, 8)
	for i := 0; i < 5; i++ {
		if err := interact.SubmitTask(rt.Once(func() { done <- struct{}{} })); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("interactive task starved: the handoff never freed the lane")
		}
	}
	if r.Handoffs() == 0 {
		t.Error("interactive tasks ran but no handoff was counted")
	}
	close(release)
	r.Drain()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Stats() {
		if s.Name == "hog" && s.Handoffs != 1 {
			t.Errorf("hog handoff attribution %d, want 1", s.Handoffs)
		}
	}
}

// waitGoroutines polls until the process runs exactly want goroutines: one
// that has called wg.Done is a few instructions short of gone.
func waitGoroutines(t *testing.T, want int, when string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", when, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandoffNeverStrandsLane wedges the only worker's lane three times over:
// three tenants, each inside a plain task that does not return until released,
// are handed off in turn, and a fourth tenant's task must still run while all
// three are blocked — every handoff staffs the lane it confiscates, however
// many closures are already running out of band. The runtime runs its workers
// (an enforcement loop beside them when armed) plus one goroutine per detached
// tenant, and all of them are gone after the release and Close. Only the
// quantum is set, to keep three deadlines short.
func TestHandoffNeverStrandsLane(t *testing.T) {
	base := runtime.NumGoroutine()
	off := rt.New(rt.Config{Workers: 3})
	waitGoroutines(t, base+3, "Enforce off")
	off.Close()
	waitGoroutines(t, base, "after Close")

	r := rt.New(rt.Config{Workers: 1, Quantum: 5 * simtime.Millisecond, Enforce: true})
	defer r.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	for i := 0; i < 3; i++ {
		hog, err := r.Register(fmt.Sprintf("hog%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := hog.SubmitTask(rt.Once(func() { started <- struct{}{}; <-release })); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("hog %d never dispatched: the lane idles behind %d handed-off closures", i, i)
		}
	}
	fourth, err := r.Register("fourth", 1)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	if err := fourth.SubmitTask(rt.Once(func() { close(ran) })); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("the fourth tenant starved behind three handed-off closures")
	}
	if h := r.Handoffs(); h != 3 {
		t.Errorf("%d handoffs, want 3", h)
	}
	waitGoroutines(t, base+2+3, "three tenants detached") // worker, enforcement loop, three closures
	close(release)
	r.Drain()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base+2, "closures returned")
	r.Close()
	waitGoroutines(t, base, "after Close")
}

// TestEnforceHotPathZeroAlloc pins the steady-state allocation contract with
// enforcement armed: a full flag→handoff→dispatch→late-Complete cycle
// allocates nothing once the record pool is warm.
func TestEnforceHotPathZeroAlloc(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 1, Quantum: 10 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true, Preempt: true,
		Enforce: true, EnforceTick: simtime.Millisecond})
	defer r.Close()
	hog, _ := r.Register("hog", 1)
	blinker, _ := r.Register("blinker", 1)
	if err := hog.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	task := rt.Once(func() {})
	cycle := func() {
		d := r.Dispatch(0) // the hog (perpetual continuation)
		clock.Advance(simtime.Millisecond)
		// With 1 ms of uncharged service the hog strictly out-ranks the
		// waking blinker (a same-instant wakeup would tie and raise nothing).
		if err := blinker.SubmitTask(task); err != nil {
			t.Fatal(err)
		}
		r.Enforce() // flag acceleration hands the hog off
		if !d.Detached() {
			t.Fatal("hog slice not handed off")
		}
		d2 := r.Dispatch(0) // the woken blinker on the freed slot
		clock.Advance(simtime.Millisecond)
		d2.Complete(true)
		d.Complete(false) // hog closure returns; record recycles
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("enforced dispatch cycle allocates %.1f per run, want 0", n)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
