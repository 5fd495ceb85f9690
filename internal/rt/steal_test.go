package rt_test

// Tests of idle-path cross-shard work stealing (steal.go): deterministic
// Manual-mode drivers pin the mechanics (victim selection, frame-lead
// conservation, disarmed bit-identity, the 0 allocs/op steal path), the §1.2
// pile-up holds stealing to more than twice the completions of a runtime
// with neither recovery mechanism, a differential run bounds the fairness
// perturbation against the single-queue oracle, concurrent tests exercise the
// worker idle path and the offer protocol under the race detector, and
// FuzzStealTransfer drives randomized op sequences through the transfer
// machinery checking task conservation.

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// newStealPair builds a Manual two-shard runtime with stealing armed and
// `each` equal-weight tenants per shard (alternating least-loaded placement),
// returning the tenants grouped by their initial shard.
func newStealPair(t *testing.T, each int) (*rt.Runtime, *rt.FakeClock, [2][]*rt.Tenant) {
	t.Helper()
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{
		Workers:  4,
		Sharding: rt.ShardingConfig{Shards: 2, Steal: true},
		Intake:   rt.IntakeConfig{QueueCap: 8},
		Quantum:  20 * simtime.Millisecond,
		Clock:    clock,
		Manual:   true,
	})
	var byShard [2][]*rt.Tenant
	for i := 0; i < 2*each; i++ {
		tn, err := r.Register("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tn.Shard(), i%2; got != want {
			t.Fatalf("tenant %d placed on shard %d, want %d", i, got, want)
		}
		byShard[i%2] = append(byShard[i%2], tn)
	}
	return r, clock, byShard
}

// TestStealMovesBacklog pins the basic mechanics: a worker on an empty shard
// steals a ready tenant from its backlogged sibling, dispatches it locally,
// and every counter (Steals, per-shard Steals/Stolen/StealWait) records the
// event.
func TestStealMovesBacklog(t *testing.T) {
	r, clock, byShard := newStealPair(t, 2)
	defer r.Close()
	// Empty shard 1; shard 0 keeps two tenants with queued work.
	for _, tn := range byShard[1] {
		if err := r.Unregister(tn); err != nil {
			t.Fatal(err)
		}
	}
	for _, tn := range byShard[0] {
		for i := 0; i < 2; i++ {
			if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Workers 2,3 belong to shard 1 (block assignment): nothing local.
	if d := r.Dispatch(2); d != nil {
		t.Fatalf("dispatch on empty shard returned %v", d.Tenant().Name())
	}
	if !r.TrySteal(2) {
		t.Fatal("TrySteal found nothing despite a backlogged sibling")
	}
	d := r.Dispatch(2)
	if d == nil {
		t.Fatal("no dispatch after a successful steal")
	}
	if got := d.Tenant().Shard(); got != 1 {
		t.Fatalf("stolen tenant bound to shard %d, want 1", got)
	}
	if n := r.Steals(); n != 1 {
		t.Fatalf("Steals() = %d, want 1", n)
	}
	ss := r.ShardStats()
	if ss[1].Steals != 1 || ss[0].Stolen != 1 {
		t.Fatalf("shard counters: thief Steals=%d victim Stolen=%d, want 1/1",
			ss[1].Steals, ss[0].Stolen)
	}
	if ss[1].StealWait.Count != 1 {
		t.Fatalf("StealWait recorded %d samples, want 1", ss[1].StealWait.Count)
	}
	// The remaining shard-0 tenant still dispatches locally.
	d0 := r.Dispatch(0)
	if d0 == nil {
		t.Fatal("victim shard lost its remaining tenant")
	}
	if got := d0.Tenant().Shard(); got != 0 {
		t.Fatalf("remaining tenant bound to shard %d, want 0", got)
	}
	clock.Advance(5 * simtime.Millisecond)
	d.Complete(true)
	d0.Complete(true)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStealDisabledNoop pins the disarmed contract: with Config.Sharding.Steal unset
// TrySteal is an inert no-op even when a sibling is backlogged, so disarmed
// runs keep their pre-steal dispatch traces bit-identical (the golden suite
// pins the traces themselves; this pins the entry point).
func TestStealDisabledNoop(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 4, Quantum: 20 * simtime.Millisecond,
		Clock: clock, Manual: true,
		Sharding: rt.ShardingConfig{Shards: 2},
		Intake:   rt.IntakeConfig{QueueCap: 8}})
	defer r.Close()
	a, _ := r.Register("a", 1) // shard 0
	b, _ := r.Register("b", 1) // shard 1
	if err := r.Unregister(b); err != nil {
		t.Fatal(err)
	}
	if err := a.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
		t.Fatal(err)
	}
	if r.TrySteal(2) {
		t.Fatal("TrySteal stole with stealing disarmed")
	}
	if d := r.Dispatch(2); d != nil {
		t.Fatal("disarmed idle shard dispatched foreign work")
	}
	if n := r.Steals(); n != 0 {
		t.Fatalf("Steals() = %d with stealing disarmed", n)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStealPicksMostBacklogged pins lock-free victim selection: the thief
// probes the sibling advertising the largest runnable-not-running count.
func TestStealPicksMostBacklogged(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 3, Quantum: 20 * simtime.Millisecond,
		Clock: clock, Manual: true,
		Sharding: rt.ShardingConfig{Shards: 3, Steal: true},
		Intake:   rt.IntakeConfig{QueueCap: 8}})
	defer r.Close()
	tenants := make([]*rt.Tenant, 6) // alternating placement: i%3 is the shard
	for i := range tenants {
		tn, err := r.Register("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	// Shard 0 goes empty (the thief); shard 1 advertises one ready tenant,
	// shard 2 two.
	for _, i := range []int{0, 3} {
		if err := r.Unregister(tenants[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{1, 2, 5} {
		if err := tenants[i].SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
			t.Fatal(err)
		}
	}
	if !r.TrySteal(0) {
		t.Fatal("TrySteal found nothing")
	}
	ss := r.ShardStats()
	if ss[2].Stolen != 1 {
		t.Fatalf("victim was not the most backlogged shard: stolen counts [%d %d %d]",
			ss[0].Stolen, ss[1].Stolen, ss[2].Stolen)
	}
	stolen := 0
	for _, i := range []int{2, 5} {
		if tenants[i].Shard() == 0 {
			stolen++
		}
	}
	if stolen != 1 {
		t.Fatalf("%d shard-2 tenants rebound to the thief, want exactly 1", stolen)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStealFrameLeadConserved pins the fairness-preserving translation: the
// stolen tenant re-enters the thief's virtual-time frame holding exactly the
// (clamped) lead it held over the victim's virtual time, so the move neither
// mints credit nor erases earned lead — the same §2.3 wakeup-rule argument
// the rebalancer's migrations rely on.
func TestStealFrameLeadConserved(t *testing.T) {
	r, clock, byShard := newStealPair(t, 2)
	defer r.Close()
	for _, tn := range byShard[1] {
		if err := r.Unregister(tn); err != nil {
			t.Fatal(err)
		}
	}
	a, c := byShard[0][0], byShard[0][1]
	if err := r.SetWeight(a, 4); err != nil { // unequal weights diverge the tags
		t.Fatal(err)
	}
	if err := a.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
		t.Fatal(err)
	}
	// Advance shard 0's virtual time with both tenants perpetually busy.
	for i := 0; i < 8; i++ {
		d0, d1 := r.Dispatch(0), r.Dispatch(1)
		if d0 == nil || d1 == nil {
			t.Fatal("lockstep dispatch failed")
		}
		clock.Advance(5 * simtime.Millisecond)
		d0.Complete(false)
		d1.Complete(false)
	}
	// Pin one tenant mid-slice so the other is the unique steal candidate.
	d0 := r.Dispatch(0)
	if d0 == nil {
		t.Fatal("no dispatch")
	}
	victim := c
	if d0.Tenant() == c {
		victim = a
	}
	vSrc := r.ShardStats()[0].VirtualTime
	lead := victim.Thread().Finish - vSrc
	if lead < 0 {
		lead = 0
	}
	if !r.TrySteal(2) {
		t.Fatal("TrySteal found nothing")
	}
	if got := victim.Shard(); got != 1 {
		t.Fatalf("stolen tenant bound to shard %d, want 1", got)
	}
	// The wakeup rule on the thief re-admitted it at S = max(F, v_dst) with
	// F rewritten to v_dst + lead, so its start tag sits exactly lead ahead.
	vDst := r.ShardStats()[1].VirtualTime
	if got := victim.Thread().Start - vDst; math.Abs(got-lead) > 1e-6 {
		t.Fatalf("frame lead not conserved: held %.9f over the victim's v, re-entered %.9f over the thief's", lead, got)
	}
	clock.Advance(5 * simtime.Millisecond)
	d0.Complete(true)
	if d := r.Dispatch(2); d != nil {
		clock.Advance(5 * simtime.Millisecond)
		d.Complete(true)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// driveStealTicks is driveTicks with two deltas: idle workers fall back to
// TrySteal before giving up their slot for the tick, and tenants listed in
// blocked get no refills during periodic windows — draining whichever shard
// holds them and forcing the idle path to actually fire. The window pattern
// depends only on tick index and tenant index, so a single-shard oracle run
// sees the identical workload. It returns how many workers dispatched on each
// tick.
func driveStealTicks(t *testing.T, r *rt.Runtime, clock *rt.FakeClock, tenants []*rt.Tenant,
	ticks int, slice simtime.Duration, rebalanceEvery int, blocked map[int]bool) []int {
	t.Helper()
	busy := make([]int, ticks)
	refill := func(i int, tick int) {
		if blocked[i] && tick%400 >= 200 && tick%400 < 260 {
			return
		}
		for tenants[i].Queued() < 2 {
			if err := tenants[i].SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range tenants {
		refill(i, 0)
	}
	for tick := 0; tick < ticks; tick++ {
		var ds []*rt.Dispatched
		for w := 0; w < r.Workers(); w++ {
			d := r.Dispatch(w)
			if d == nil && r.TrySteal(w) {
				d = r.Dispatch(w)
			}
			if d != nil {
				ds = append(ds, d)
			}
		}
		busy[tick] = len(ds)
		clock.Advance(slice)
		for _, d := range ds {
			d.Complete(true)
		}
		for i := range tenants {
			refill(i, tick)
		}
		if rebalanceEvery > 0 && (tick+1)%rebalanceEvery == 0 {
			r.Rebalance()
		}
	}
	return busy
}

// TestStealPileUp is the paper's §1.2 argument against partitioned run queues
// as a within-run floor: every active tenant piled onto shard 0 of a
// one-worker-per-shard runtime, every other shard idle. Stealing must recover
// on the first tick, the rebalancer only at its first pass, a runtime with
// neither never — and the stealing run must complete more than twice what the
// run with neither does.
func TestStealPileUp(t *testing.T) {
	const shards, ticks, every = 4, 120, 30
	type cell struct {
		recovery, completed int // first tick with every worker busy (-1: none); Σ dispatches
		jain                float64
		steals, migrations  int64
	}
	run := func(steal bool, rebalanceEvery int) cell {
		clock := rt.NewFakeClock()
		r := rt.New(rt.Config{Workers: shards, Quantum: 10 * simtime.Millisecond,
			Clock: clock, Manual: true,
			Sharding: rt.ShardingConfig{Shards: shards, Steal: steal},
			Intake:   rt.IntakeConfig{QueueCap: 4}})
		defer r.Close()
		register := func() *rt.Tenant {
			tn, err := r.Register("t", 1)
			if err != nil {
				t.Fatal(err)
			}
			return tn
		}
		// Least-loaded placement breaks ties toward shard 0, so an active
		// registered while the shards are level lands there and shards-1
		// ballast tenants level them again; with the ballast gone every
		// active sits on shard 0 and the weight imbalance is in plain sight
		// of the rebalancer.
		var actives, ballast []*rt.Tenant
		for i := 0; i < shards; i++ {
			tn := register()
			if tn.Shard() != 0 {
				t.Fatalf("active %d placed on shard %d, want 0", i, tn.Shard())
			}
			actives = append(actives, tn)
			for j := 1; j < shards; j++ {
				ballast = append(ballast, register())
			}
		}
		for _, tn := range ballast {
			if err := r.Unregister(tn); err != nil {
				t.Fatal(err)
			}
		}
		c := cell{recovery: -1}
		for tick, n := range driveStealTicks(t, r, clock, actives, ticks, 5*simtime.Millisecond, rebalanceEvery, nil) {
			c.completed += n
			if c.recovery < 0 && n == shards {
				c.recovery = tick
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		c.jain, c.steals, c.migrations = r.JainIndex(), r.Steals(), r.Migrations()
		return c
	}
	neither, rebalanced, stolen := run(false, 0), run(false, every), run(true, 0)
	if neither.recovery != -1 || neither.completed != ticks || neither.steals != 0 || neither.migrations != 0 {
		t.Errorf("neither: %+v, want no recovery, one busy worker of %d (%d completions) and nothing moved",
			neither, shards, ticks)
	}
	if rebalanced.recovery < every-1 || rebalanced.migrations == 0 || rebalanced.steals != 0 {
		t.Errorf("rebalancer: %+v, want recovery no earlier than its first pass (tick %d), ≥ 1 migration, 0 steals",
			rebalanced, every-1)
	}
	if stolen.recovery != 0 || stolen.completed != ticks*shards || stolen.steals != shards-1 || stolen.migrations != 0 {
		t.Errorf("steal: %+v, want recovery on tick 0, every worker busy throughout, %d steals, 0 migrations",
			stolen, shards-1)
	}
	if stolen.completed <= 2*neither.completed {
		t.Errorf("steal completed %d, not more than 2× neither's %d", stolen.completed, neither.completed)
	}
	for name, c := range map[string]cell{"neither": neither, "rebalancer": rebalanced, "steal": stolen} {
		if c.jain < 0.99 {
			t.Errorf("%s: Jain %.4f among equal-weight actives", name, c.jain)
		}
	}
}

// TestStealDifferentialVsCentral is the fairness acceptance check for
// stealing, and the one statistical differential deliberately retained now
// that the golden tests assert exact decision-trace equality
// (structural_test.go): steals make a shard's trace legitimately diverge
// from any isolated replica, so a service bound is the strongest claim
// available here — the same deterministic workload, with periodic blocked
// windows that drain one shard and force steals, must yield per-tenant
// allocations within 8% of the single-queue oracle, with steals verifiably
// firing in the sharded run.
func TestStealDifferentialVsCentral(t *testing.T) {
	// shardedWeights places tenants {0,3,4,7} on shard 0; blocking exactly
	// that set during the windows empties whichever shard holds them.
	blocked := map[int]bool{0: true, 3: true, 4: true, 7: true}
	run := func(shards int) ([]simtime.Duration, int64) {
		clock := rt.NewFakeClock()
		r := rt.New(rt.Config{Workers: 4, Quantum: 20 * simtime.Millisecond,
			Clock: clock, Manual: true,
			Sharding: rt.ShardingConfig{Shards: shards, Steal: true},
			Intake:   rt.IntakeConfig{QueueCap: 4}})
		defer r.Close()
		tenants := make([]*rt.Tenant, len(shardedWeights))
		for i, w := range shardedWeights {
			tn, err := r.Register("t", w)
			if err != nil {
				t.Fatal(err)
			}
			tenants[i] = tn
		}
		driveStealTicks(t, r, clock, tenants, 4000, 5*simtime.Millisecond, 64, blocked)
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		services := make([]simtime.Duration, len(tenants))
		for i, tn := range tenants {
			services[i] = tn.Thread().Service
		}
		return services, r.Steals()
	}
	central, cs := run(1)
	sharded, ss := run(2)
	if cs != 0 {
		t.Fatalf("single-shard oracle recorded %d steals", cs)
	}
	if ss == 0 {
		t.Fatal("sharded run never stole despite the blocked windows")
	}
	for i := range central {
		c, s := central[i].Seconds(), sharded[i].Seconds()
		if c <= 0 || s <= 0 {
			t.Fatalf("tenant %d starved (central %v, sharded %v)", i, central[i], sharded[i])
		}
		diff := math.Abs(s-c) / c
		if diff > 0.08 {
			t.Errorf("tenant %d diverges %.1f%% from the single-queue allocation (central %v, sharded %v)",
				i, diff*100, central[i], sharded[i])
		}
	}
}

// TestStealHotPathZeroAlloc pins the 0 allocs/op guarantee of the steal path:
// a full probe→lock→ring-drain→transfer→frame-translate→re-admit round, plus
// the dispatch and completion of the stolen tenant, allocates nothing. One
// perpetual tenant ping-pongs between two shards, stolen back and forth every
// cycle.
func TestStealHotPathZeroAlloc(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 2, Quantum: 10 * simtime.Millisecond,
		Clock: clock, Manual: true,
		Sharding: rt.ShardingConfig{Shards: 2, Steal: true},
		Intake:   rt.IntakeConfig{QueueCap: 4}})
	defer r.Close()
	tn, _ := r.Register("pingpong", 1) // placed on shard 0
	if err := tn.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	// Prime: one local dispatch+yield leaves the tenant ready on shard 0.
	d := r.Dispatch(0)
	clock.Advance(simtime.Millisecond)
	d.Complete(false)
	cycle := func() {
		if !r.TrySteal(1) { // shard 1's worker pulls it over
			t.Fatal("steal to shard 1 failed")
		}
		d := r.Dispatch(1)
		clock.Advance(simtime.Millisecond)
		d.Complete(false)
		if !r.TrySteal(0) { // and shard 0 steals it back
			t.Fatal("steal back to shard 0 failed")
		}
		d = r.Dispatch(0)
		clock.Advance(simtime.Millisecond)
		d.Complete(false)
	}
	for i := 0; i < 100; i++ {
		cycle() // warm up maps and free-lists on both shards
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("steal path allocates %.1f per cycle, want 0", n)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStealConcurrentImbalance exercises the real worker idle path: three
// busy tenants share one shard's two workers while the sibling shard sits
// empty, so the sibling's workers must discover the imbalance themselves
// (spin → probe → steal, re-armed by the victim-side offer) for the pool to
// become work-conserving.
func TestStealConcurrentImbalance(t *testing.T) {
	r := rt.New(rt.Config{Workers: 4, Quantum: 5 * simtime.Millisecond,
		Sharding: rt.ShardingConfig{Shards: 2, Steal: true},
		Intake:   rt.IntakeConfig{QueueCap: 16}})
	defer r.Close()
	var tenants []*rt.Tenant
	for i := 0; i < 6; i++ {
		tn, err := r.Register("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	// Alternating placement: odd-index tenants sit on shard 1; removing them
	// leaves shard 1's two workers with nothing local, ever.
	for i := 1; i < 6; i += 2 {
		if err := r.Unregister(tenants[i]); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	for i := 0; i < 6; i += 2 {
		selfFeed(t, tenants[i], 100*time.Microsecond, &stop)
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	r.Drain()
	if n := r.Steals(); n == 0 {
		t.Fatal("idle workers never stole from the backlogged sibling")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRaceStealChurn is the race-detector stress for stealing composed with
// everything it can interleave with: bursty submitters that go quiet (forcing
// steals), an aggressive background rebalancer, slice enforcement, and
// cooperative preemption, all churning concurrently. Per-tenant execution
// order must stay FIFO and no task may be lost or run twice.
func TestRaceStealChurn(t *testing.T) {
	burst, pause := 300, 2*time.Millisecond
	if testing.Short() {
		burst = 60
	}
	r := rt.New(rt.Config{Workers: 4, Quantum: 2 * simtime.Millisecond,
		Preempt:     true,
		Enforcement: rt.EnforcementConfig{Enabled: true},
		Sharding:    rt.ShardingConfig{Shards: 2, Steal: true},
		Intake:      rt.IntakeConfig{QueueCap: 16}})
	defer r.Close()
	rebalanceEvery(t, r, time.Millisecond)
	const nt = 6
	var (
		mu       sync.Mutex
		executed [nt][]int
	)
	tenants := make([]*rt.Tenant, nt)
	for i := range tenants {
		tn, err := r.Register("t", float64(1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	var wg sync.WaitGroup
	submitted := make([]int, nt)
	for i := 0; i < nt; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq := 0
			for b := 0; b < burst; b++ {
				seq++
				s := seq
				err := tenants[i].SubmitTask(func(simtime.Duration) bool {
					spin(20 * time.Microsecond)
					mu.Lock()
					executed[i] = append(executed[i], s)
					mu.Unlock()
					return true
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				submitted[i] = seq
				if b%10 == 9 {
					// Going quiet drains this tenant's shard share and
					// opens steal windows on whichever workers idle.
					time.Sleep(pause)
				}
			}
		}(i)
	}
	wg.Wait()
	r.Drain()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nt; i++ {
		if len(executed[i]) != submitted[i] {
			t.Fatalf("tenant %d: %d tasks executed of %d submitted", i, len(executed[i]), submitted[i])
		}
		for j, s := range executed[i] {
			if s != j+1 {
				t.Fatalf("tenant %d: execution order broke FIFO at %d (got seq %d)", i, j, s)
			}
		}
	}
}

// FuzzStealTransfer drives randomized op sequences — submits, dispatches,
// completions, clock advances, steals and rebalances — through a Manual
// three-shard runtime, then drains it to empty. Whatever the interleaving,
// no task may be lost or duplicated (per-tenant executed == submitted after
// the drain) and every structural invariant must hold.
func FuzzStealTransfer(f *testing.F) {
	f.Add([]byte{0, 8, 2, 10, 5, 3, 4})
	f.Add([]byte{0, 0, 1, 16, 24, 5, 13, 2, 34, 3, 11, 6, 5, 21, 2, 3})
	f.Add([]byte{0, 9, 17, 25, 33, 41, 5, 5, 13, 21, 2, 10, 18, 4, 3, 3, 3, 6})
	f.Add([]byte{1, 1, 1, 1, 2, 4, 5, 3, 0, 8, 16, 24, 2, 10, 3, 11, 6, 5, 5, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		clock := rt.NewFakeClock()
		r := rt.New(rt.Config{Workers: 3, Quantum: 10 * simtime.Millisecond,
			Clock: clock, Manual: true,
			Sharding: rt.ShardingConfig{Shards: 3, Steal: true},
			Intake:   rt.IntakeConfig{QueueCap: 4}})
		defer r.Close()
		weights := []float64{4, 3, 2, 1, 2, 1}
		tenants := make([]*rt.Tenant, len(weights))
		index := make(map[*rt.Tenant]int)
		for i, w := range weights {
			tn, err := r.Register("t", w)
			if err != nil {
				t.Fatal(err)
			}
			tenants[i] = tn
			index[tn] = i
		}
		var submitted, completed [6]int
		busy := make(map[int]*rt.Dispatched) // worker -> outstanding slice
		complete := func(w int, done bool) {
			d := busy[w]
			delete(busy, w)
			if done {
				completed[index[d.Tenant()]]++
			}
			d.Complete(done)
		}
		for _, b := range ops {
			arg := int(b >> 3)
			switch b % 8 {
			case 0, 1: // submit
				i := arg % len(tenants)
				if err := tenants[i].SubmitTask(rt.Once(func() {}), rt.NoWait()); err == nil {
					submitted[i]++
				}
			case 2: // dispatch an idle worker
				w := arg % 3
				if busy[w] == nil {
					if d := r.Dispatch(w); d != nil {
						busy[w] = d
					}
				}
			case 3: // complete an outstanding slice
				w := arg % 3
				if busy[w] != nil {
					clock.Advance(simtime.Millisecond)
					complete(w, arg&8 == 0)
				}
			case 4: // advance time
				clock.Advance(simtime.Duration(1+arg%7) * simtime.Millisecond)
			case 5: // steal toward a worker's shard
				r.TrySteal(arg % 3)
			case 6: // rebalance pass
				r.Rebalance()
			case 7: // check mid-sequence
				if err := r.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for w := range busy {
			clock.Advance(simtime.Millisecond)
			complete(w, true)
		}
		// Drain to empty: every submitted task must complete exactly once,
		// wherever steals and migrations moved its tenant.
		total := 0
		for _, n := range submitted {
			total += n
		}
		for round := 0; round < total+4; round++ {
			progress := false
			for w := 0; w < 3; w++ {
				d := r.Dispatch(w)
				if d == nil && r.TrySteal(w) {
					d = r.Dispatch(w)
				}
				if d != nil {
					busy[w] = d
					progress = true
				}
			}
			clock.Advance(simtime.Millisecond)
			for w := range busy {
				complete(w, true)
			}
			if !progress {
				break
			}
		}
		for i, tn := range tenants {
			if tn.Queued() != 0 {
				t.Fatalf("tenant %d: %d tasks stranded after drain", i, tn.Queued())
			}
			if completed[i] != submitted[i] {
				t.Fatalf("tenant %d: %d completions of %d submissions (lost or duplicated work)",
					i, completed[i], submitted[i])
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
