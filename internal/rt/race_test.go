package rt_test

// Concurrency stress tests. These are the tests the race detector sees in
// CI's `go test -race` job: real worker goroutines executing real spinning
// tasks while tenants churn. TestRaceProportionalWallClockShares is the
// acceptance check — wall-clock CPU shares within 5% of weight proportions
// across four tenants flooding a shared pool.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// spin busily consumes roughly d of CPU, re-reading the monotonic clock.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
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

// TestRaceProportionalWallClockShares floods a worker pool from four tenants
// weighted 4:3:2:1 (a feasible assignment) and requires the delivered
// wall-clock CPU shares to match the weight proportions within 5%. The
// measurement is a wall-clock canary: when it overlaps another package's
// spinning workers on a small host, the host's scheduler, not this one,
// decides the shares (ROADMAP: about one full `go test ./...` in four missed
// the bound, none in twenty on its own). So a miss is re-measured, up to
// three attempts; hard failures (no service, broken invariants) fail at once.
func TestRaceProportionalWallClockShares(t *testing.T) {
	const attempts = 3
	var miss string
	for i := 0; i < attempts; i++ {
		if miss = wallClockSharesMiss(t); miss == "" {
			return
		}
		t.Logf("attempt %d/%d: %s", i+1, attempts, miss)
	}
	t.Fatal(miss)
}

// wallClockSharesMiss runs the flood once and describes how the measured
// shares missed their bounds, "" if they did not.
func wallClockSharesMiss(t *testing.T) string {
	workers := 2
	if runtime.GOMAXPROCS(0) < 2 {
		// With a single schedulable core, two spinning workers only add
		// charge noise; the fairness property itself is per-pool-size.
		workers = 1
	}
	weights := []float64{4, 3, 2, 1}
	r := rt.New(rt.Config{Workers: workers, Quantum: 10 * simtime.Millisecond, QueueCap: 8})
	defer r.Close()
	var stop atomic.Bool
	tenants := make([]*rt.Tenant, len(weights))
	for i, w := range weights {
		tn, err := r.Register("tenant", w)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
		selfFeed(t, tn, 200*time.Microsecond, &stop)
	}
	time.Sleep(1500 * time.Millisecond)
	stop.Store(true)
	r.Drain()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	measured := make([]float64, len(stats))
	for i, s := range stats {
		if s.Service <= 0 {
			t.Fatalf("tenant %d received no service", i)
		}
		measured[i] = s.Share
	}
	if worst := metrics.RatioError(measured, weights); worst > 0.05 {
		return fmt.Sprintf("wall-clock share error %.1f%% exceeds 5%% (shares %v vs weights %v)",
			worst*100, measured, weights)
	}
	if j := r.JainIndex(); j < 0.995 {
		return fmt.Sprintf("Jain index %.4f under steady flood", j)
	}
	return ""
}

// TestRaceChurnStress hammers one runtime from many goroutines: floods,
// weight changes, tenant churn (Unregister + Register), and concurrent
// metrics/invariant readers. The assertions are survival assertions — no
// data race, no deadlock, bookkeeping consistent — the fairness math is
// covered by the deterministic tests.
func TestRaceChurnStress(t *testing.T) {
	r := rt.New(rt.Config{Workers: 4, Quantum: 2 * simtime.Millisecond, QueueCap: 4})
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
			_ = r.JainIndex()
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
// backpressure gate equal its absorbed backlog once gQueued reads zero. A
// reservation leaked on any of those paths (the hole the pre-PR-7 one-sided
// check could not see outside Manual mode) fails the final check.
func TestRaceQuiescentGateStress(t *testing.T) {
	r := rt.New(rt.Config{Workers: 4, Shards: 2, Quantum: simtime.Millisecond,
		QueueCap: 2, Preempt: true, Enforce: true,
		EnforceTick: 500 * simtime.Microsecond})
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
	r.Drain()
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
	r.Drain()
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.TaskPanics() == 0 {
		t.Fatal("stress ran without exercising the panicking-task drop path")
	}
	if handoffs < gated {
		t.Fatalf("enforcer handed off %d gated hogs, want %d", handoffs, gated)
	}
}

// TestRaceDrainCloseRace closes the runtime while submitters are blocked on
// backpressure; everyone must unblock promptly with ErrRuntimeClosed.
func TestRaceDrainCloseRace(t *testing.T) {
	r := rt.New(rt.Config{Workers: 1, Quantum: simtime.Millisecond, QueueCap: 2})
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
