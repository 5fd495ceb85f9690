package rt_test

// Concurrency stress tests. These are the tests the race detector sees in
// CI's `go test -race` job: real worker goroutines executing real spinning
// tasks while tenants churn. They assert survival and bookkeeping, not
// shares: the share check of a flooded pool runs in virtual time
// (TestBubbleProportionalShares), where no host scheduler decides it.

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// spin busily consumes roughly d of CPU, re-reading the monotonic clock.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// rebalanceEvery calls r.Rebalance every period from a goroutine of its own
// until the test ends — what the background rebalancer does, at the test's
// cadence instead of DefaultRebalanceEvery.
func rebalanceEvery(t *testing.T, r *rt.Runtime, period time.Duration) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.Rebalance()
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
}

// selfFeed submits a task that spins and resubmits itself before completing,
// keeping the tenant's backlog permanently non-empty until stop flips — the
// "flooding" regime where the pool is capacity-limited and weights decide
// shares. Feeding from inside the task (rather than from a submitter
// goroutine) keeps tenants backlogged even when spinning workers starve
// every other goroutine on a small GOMAXPROCS.
func selfFeed(t *testing.T, tn *rt.Tenant, cost time.Duration, stop *atomic.Bool) {
	t.Helper()
	var task rt.Task
	task = func(simtime.Duration) bool {
		spin(cost)
		if !stop.Load() {
			if err := tn.SubmitTask(task, rt.NoWait()); err != nil && !errors.Is(err, rt.ErrTenantClosed) &&
				!errors.Is(err, rt.ErrRuntimeClosed) && !errors.Is(err, rt.ErrBackpressure) {
				t.Errorf("self-feed: %v", err)
			}
		}
		return true
	}
	if err := tn.SubmitTask(task); err != nil {
		t.Fatalf("seed submit: %v", err)
	}
}

// TestRaceChurnStress hammers one runtime from many goroutines: floods,
// weight changes, tenant churn (Unregister + Register), and concurrent
// metrics/invariant readers. The assertions are survival assertions — no
// data race, no deadlock, bookkeeping consistent — the fairness math is
// covered by the deterministic tests.
func TestRaceChurnStress(t *testing.T) {
	r := rt.New(rt.Config{Workers: 4, Quantum: 2 * simtime.Millisecond,
		Intake: rt.IntakeConfig{QueueCap: 4}})
	defer r.Close()

	var (
		mu   sync.Mutex
		live []*rt.Tenant
	)
	for i := 0; i < 8; i++ {
		tn, err := r.Register("seed", 1+float64(i))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, tn)
	}
	pick := func(rng *rand.Rand) *rt.Tenant {
		mu.Lock()
		defer mu.Unlock()
		if len(live) == 0 {
			return nil
		}
		return live[rng.Intn(len(live))]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var submitted, rejected atomic.Int64

	// Submitters: mixed blocking and non-blocking submits of tiny tasks.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			task := rt.Once(func() { spin(30 * time.Microsecond) })
			for {
				select {
				case <-stop:
					return
				default:
				}
				tn := pick(rng)
				if tn == nil {
					continue
				}
				var err error
				if rng.Intn(4) == 0 {
					err = tn.SubmitTask(task)
				} else {
					err = tn.SubmitTask(task, rt.NoWait())
				}
				switch {
				case err == nil:
					submitted.Add(1)
				case errors.Is(err, rt.ErrBackpressure), errors.Is(err, rt.ErrTenantClosed):
					rejected.Add(1)
				case errors.Is(err, rt.ErrRuntimeClosed):
					return
				default:
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(int64(g))
	}
	// Mutator: random weight changes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if tn := pick(rng); tn != nil {
				if err := r.SetWeight(tn, 1+float64(rng.Intn(16))); err != nil &&
					!errors.Is(err, rt.ErrTenantClosed) {
					t.Errorf("setweight: %v", err)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Churner: unregister a live tenant, register a replacement.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			if len(live) > 2 {
				i := rng.Intn(len(live))
				victim := live[i]
				live = append(live[:i], live[i+1:]...)
				mu.Unlock()
				if err := r.Unregister(victim); err != nil {
					t.Errorf("unregister: %v", err)
					return
				}
			} else {
				mu.Unlock()
			}
			tn, err := r.Register("churn", 1+float64(rng.Intn(8)))
			if err != nil {
				if errors.Is(err, rt.ErrRuntimeClosed) {
					return
				}
				t.Errorf("register: %v", err)
				return
			}
			mu.Lock()
			live = append(live, tn)
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Readers: stats, fairness index and invariants under fire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.CheckInvariants(); err != nil {
				t.Errorf("invariants: %v", err)
				return
			}
			for _, s := range r.Stats() {
				if s.Service < 0 || s.Queued < 0 {
					t.Errorf("bogus stat %+v", s)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()
	r.Drain()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if submitted.Load() == 0 {
		t.Fatal("stress loop submitted no work")
	}
	t.Logf("churn stress: %d tasks executed, %d rejected by backpressure/churn",
		submitted.Load(), rejected.Load())
}

// TestRaceQuiescentGateStress drives every reservation-release path at once —
// panicking tasks (the recover-and-drop path), tenants unregistered mid-load
// with backlogs still queued (the backlog-drop path), tight backpressure
// (blocking submits woken by close broadcasts), and involuntary enforcement
// handoffs of never-yielding slices — then drains and runs CheckInvariants,
// whose exact quiescent-state check demands that every tenant's lock-free
// backpressure gate equal its absorbed backlog once the shard task counters
// sum to zero. A reservation leaked on any of those paths (the hole the
// pre-PR-7 one-sided check could not see outside Manual mode) fails the final
// check; a task count leaked on any of them never lets Drain return, which
// drainOrFail turns into a failure. The last phase takes the one release path
// the storm reaches only by luck: an item accepted into the intake ring whose
// tenant closes before a drain absorbs it.
func TestRaceQuiescentGateStress(t *testing.T) {
	r := rt.New(rt.Config{Workers: 4, Quantum: simtime.Millisecond,
		Preempt:     true,
		Enforcement: rt.EnforcementConfig{Enabled: true, Tick: 500 * simtime.Microsecond},
		Sharding:    rt.ShardingConfig{Shards: 2},
		Intake:      rt.IntakeConfig{QueueCap: 2}})
	defer r.Close()
	const nTenants = 10
	tenants := make([]*rt.Tenant, nTenants)
	for i := range tenants {
		tn, err := r.Register("quiesce", 1+float64(i%3))
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *rt.Tenant) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				var err error
				switch j % 5 {
				case 0: // panicking task: its drop must release the reservation
					err = tn.SubmitTask(rt.Once(func() { panic("quiesce: deliberate task panic") }))
				case 1: // never-yielding hog slice: the enforcer hands it off
					err = tn.SubmitTask(func(simtime.Duration) bool {
						spin(2 * time.Millisecond)
						return true
					})
				case 2: // cooperative slice, possibly flagged mid-run
					err = tn.SubmitTask(nil, rt.Preemptible(func(ctx rt.SliceCtx) bool {
						_ = ctx.Preempted()
						return true
					}))
				case 3:
					if err = tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); errors.Is(err, rt.ErrBackpressure) {
						err = nil // tight QueueCap: expected
					}
				default:
					err = tn.SubmitTask(rt.Once(func() {}))
				}
				if errors.Is(err, rt.ErrTenantClosed) {
					return // unregistered mid-load by the churner below
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(tn)
	}
	// Churner: unregister tenants whose submitters are still mid-burst, so
	// queued backlogs (and blocked submitters) are dropped under fire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			time.Sleep(5 * time.Millisecond)
			if err := r.Unregister(tenants[i]); err != nil &&
				!errors.Is(err, rt.ErrTenantClosed) {
				t.Errorf("unregister: %v", err)
			}
		}
	}()
	wg.Wait()
	drainOrFail(t, r)
	// Deterministic handoff phase: plain hogs that block on a channel. A
	// spinning hog can dodge the enforcer on a single-CPU host (the enforcer
	// goroutine only gets the processor when the workers are idle), but a
	// blocked closure does not compete for CPU, so each of these slices is
	// reliably detached at its deadline — which routes their reservation
	// release through the detached-Complete path the final gate check must
	// also account for.
	release := make(chan struct{})
	const gated = 4 // = Workers: every gated hog dispatches immediately
	for i := 3; i < 3+gated; i++ {
		if err := tenants[i].SubmitTask(func(simtime.Duration) bool {
			<-release
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); r.Handoffs() < gated &&
		time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	handoffs := r.Handoffs()
	close(release)
	drainOrFail(t, r)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.TaskPanics() == 0 {
		t.Fatal("stress ran without exercising the panicking-task drop path")
	}
	if handoffs < gated {
		t.Fatalf("enforcer handed off %d gated hogs, want %d", handoffs, gated)
	}
	closedAfterAcceptance(t)
}

// drainOrFail is Drain with a deadline: a task count that is never retired
// keeps Drain waiting for ever.
func drainOrFail(t *testing.T, r *rt.Runtime) {
	t.Helper()
	done := make(chan struct{})
	go func() { r.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain still waiting after 10 s: a task count was never retired")
	}
}

// closedAfterAcceptance parks an accepted item in the intake ring — the only
// worker is inside a blocked task and, with preemption disarmed, the doorbell
// winner signals instead of draining — unregisters its tenant, and lets the
// worker go: the drain must drop the item and release both its gate
// reservation and its task count.
func closedAfterAcceptance(t *testing.T) {
	r := rt.New(rt.Config{Workers: 1, Quantum: simtime.Millisecond})
	defer r.Close()
	hog, err := r.Register("hog", 1)
	if err != nil {
		t.Fatal(err)
	}
	late, err := r.Register("late", 1)
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	if err := hog.SubmitTask(rt.Once(func() { close(started); <-release })); err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Bool
	if err := late.SubmitTask(rt.Once(func() { ran.Store(true) })); err != nil {
		t.Fatal(err)
	}
	if err := r.Unregister(late); err != nil {
		t.Fatal(err)
	}
	if q := late.Queued(); q != 1 {
		t.Fatalf("closed tenant shows %d accepted tasks before the drain, want the ring's 1", q)
	}
	close(release)
	drainOrFail(t, r)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("a task accepted before Unregister ran after it")
	}
	if q := late.Queued(); q != 0 {
		t.Fatalf("dropped item left the closed tenant's gate at %d", q)
	}
}

// TestDrainHoldsAcrossShardHops runs one chain of tasks in which every link
// submits its successor to a tenant that started on the other shard and then
// completes, so exactly one or two tasks are live at any instant and the live
// one keeps changing shards — with the rebalancer and stealing armed, so the
// two tenants are themselves moved about. Goroutines call Drain in a loop the
// whole time: it must not return while the chain is alive, which is until the
// stop flag is up. A Drain that trusted a sum of the per-shard counters read
// one after the other would: it reads shard A before the hop's reservation
// lands there and shard B after the hopper retired. The sum only counts when
// re-read with every shard lock held.
func TestDrainHoldsAcrossShardHops(t *testing.T) {
	// Sixty-four shards put sixty-two counters between the two reads that
	// matter, which is what makes the unfrozen sum miss the hop dozens of
	// times a second instead of once in a few runs.
	const hopShards = 64
	r := rt.New(rt.Config{Workers: hopShards, Quantum: simtime.Millisecond,
		Sharding: rt.ShardingConfig{Shards: hopShards, Steal: true}})
	defer r.Close()
	rebalanceEvery(t, r, time.Millisecond)
	// Equal weights place one tenant per shard in shard order; the chain runs
	// between the first and the last.
	var tenants [2]*rt.Tenant
	for i := 0; i < hopShards; i++ {
		tn, err := r.Register("hop", 1)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || i == hopShards-1 {
			tenants[i/(hopShards-1)] = tn
		}
	}
	if a, b := tenants[0].Shard(), tenants[1].Shard(); a != 0 || b != hopShards-1 {
		t.Fatalf("chain tenants placed on shards %d and %d, want 0 and %d", a, b, hopShards-1)
	}
	var stop atomic.Bool
	var links, early atomic.Int64
	var link [2]rt.Task
	for i := range link {
		next := 1 - i
		link[i] = func(simtime.Duration) bool {
			links.Add(1)
			if !stop.Load() {
				if err := tenants[next].SubmitTask(link[next], rt.NoWait()); err != nil {
					t.Errorf("hop: %v", err)
				}
			}
			return true
		}
	}
	if err := tenants[0].SubmitTask(link[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The chain ends only after a link has seen the flag, so a return
			// that finds it down came while a link was live.
			for r.Drain(); !stop.Load(); r.Drain() {
				early.Add(1)
			}
		}()
	}
	span := 1500 * time.Millisecond
	if testing.Short() {
		span = 300 * time.Millisecond
	}
	time.Sleep(span)
	stop.Store(true)
	wg.Wait()
	hops := links.Load()
	if n := early.Load(); n > 0 {
		t.Errorf("Drain returned %d times with the chain alive (%d hops)", n, hops)
	}
	time.Sleep(5 * time.Millisecond)
	if after := links.Load(); after != hops {
		t.Errorf("%d links ran after the last Drain returned", after-hops)
	}
	if hops < 100 {
		t.Errorf("chain made only %d hops", hops)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d hops, %d migrations, %d steals", hops, r.Migrations(), r.Steals())
}

// TestRaceDrainCloseRace closes the runtime while submitters are blocked on
// backpressure; everyone must unblock promptly with ErrRuntimeClosed.
func TestRaceDrainCloseRace(t *testing.T) {
	r := rt.New(rt.Config{Workers: 1, Quantum: simtime.Millisecond,
		Intake: rt.IntakeConfig{QueueCap: 2}})
	tn, err := r.Register("blocked", 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := tn.SubmitTask(rt.Once(func() { spin(50 * time.Microsecond) })); err != nil {
					if !errors.Is(err, rt.ErrRuntimeClosed) && !errors.Is(err, rt.ErrTenantClosed) {
						t.Errorf("submit: %v", err)
					}
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	r.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("submitters still blocked after Close")
	}
}
