package rt_test

// Unit tests of the runtime's tenant API: wakeup/block transitions via
// Manual-mode dispatch, backpressure, unregister semantics, drain/close,
// metrics export, panic containment, and the hierarchical (two-level)
// scheduler backing.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sfsched/internal/core"
	"sfsched/internal/hier"
	"sfsched/internal/rt"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// manualRuntime returns a Manual-mode runtime on a fake clock with small
// backlogs, plus the clock.
func manualRuntime(t *testing.T, workers, qcap int) (*rt.Runtime, *rt.FakeClock) {
	t.Helper()
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{
		Workers:  workers,
		Quantum:  20 * simtime.Millisecond,
		Clock:    clock,
		QueueCap: qcap,
		Manual:   true,
	})
	return r, clock
}

// spinSlice completes one dispatched slice of cost d on worker w.
func spinSlice(t *testing.T, r *rt.Runtime, clock *rt.FakeClock, w int, d simtime.Duration) *rt.Tenant {
	t.Helper()
	disp := r.Dispatch(w)
	if disp == nil {
		t.Fatal("no dispatchable work")
	}
	clock.Advance(d)
	if got := disp.Complete(true); got != d {
		t.Fatalf("charged %v, want %v", got, d)
	}
	return disp.Tenant()
}

func TestManualProportionalShares(t *testing.T) {
	r, clock := manualRuntime(t, 2, 4)
	defer r.Close()
	weights := []float64{1, 2, 1}
	tenants := make([]*rt.Tenant, len(weights))
	for i, w := range weights {
		tn, err := r.Register("t", w)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
		// Keep every backlog non-empty so all tenants stay runnable.
		for j := 0; j < 4; j++ {
			if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	refill := func(tn *rt.Tenant) {
		for tn.Queued() < 4 {
			if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Round-robin the two workers through 4000 fixed 5 ms slices.
	for i := 0; i < 4000; i++ {
		tn := spinSlice(t, r, clock, i%2, 5*simtime.Millisecond)
		refill(tn)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	var total simtime.Duration
	for _, s := range stats {
		total += s.Service
	}
	// 1:2:1 on two CPUs is feasible: shares must be 25/50/25.
	wantShares := []float64{0.25, 0.5, 0.25}
	for i, s := range stats {
		got := float64(s.Service) / float64(total)
		if diff := got - wantShares[i]; diff > 0.02 || diff < -0.02 {
			t.Errorf("tenant %d share %.3f, want ~%.2f", i, got, wantShares[i])
		}
	}
	if j := r.JainIndex(); j < 0.999 {
		t.Errorf("Jain index %.4f, want ~1 for proportional delivery", j)
	}
}

func TestBlockWakeTransitions(t *testing.T) {
	r, clock := manualRuntime(t, 1, 4)
	defer r.Close()
	tn, err := r.Register("solo", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Dispatch(0); d != nil {
		t.Fatal("dispatch from an idle tenant set")
	}
	if err := tn.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	spinSlice(t, r, clock, 0, simtime.Millisecond)
	// Backlog empty again: the tenant must have left the runnable set.
	if d := r.Dispatch(0); d != nil {
		t.Fatal("dispatch after the tenant's backlog drained")
	}
	// An unfinished task stays at the head and continues.
	if err := tn.SubmitTask(func(simtime.Duration) bool { return false }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d := r.Dispatch(0)
		if d == nil {
			t.Fatalf("continuation %d not dispatchable", i)
		}
		clock.Advance(simtime.Millisecond)
		d.Complete(false)
	}
	if tn.Queued() != 1 {
		t.Fatalf("continuation queue length %d, want 1", tn.Queued())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBackpressure(t *testing.T) {
	r, clock := manualRuntime(t, 1, 2)
	defer r.Close()
	tn, err := r.Register("bp", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); !errors.Is(err, rt.ErrBackpressure) {
		t.Fatalf("NoWait submit on full backlog: %v, want ErrBackpressure", err)
	}
	// A blocking Submit parks until a slice completes and frees a slot.
	unblocked := make(chan error, 1)
	go func() { unblocked <- tn.SubmitTask(rt.Once(func() {})) }()
	select {
	case err := <-unblocked:
		t.Fatalf("Submit returned %v before capacity freed", err)
	case <-time.After(20 * time.Millisecond):
	}
	spinSlice(t, r, clock, 0, simtime.Millisecond)
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("Submit after capacity freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit still blocked after a slot freed")
	}
}

func TestUnregisterSemantics(t *testing.T) {
	r, clock := manualRuntime(t, 1, 8)
	defer r.Close()
	idleTn, _ := r.Register("idle", 1)
	busyTn, _ := r.Register("busy", 1)
	for i := 0; i < 3; i++ {
		if err := busyTn.SubmitTask(rt.Once(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	// Unregistering an idle tenant is immediate.
	if err := r.Unregister(idleTn); err != nil {
		t.Fatal(err)
	}
	if err := idleTn.SubmitTask(rt.Once(func() {})); !errors.Is(err, rt.ErrTenantClosed) {
		t.Fatalf("Submit after Unregister: %v, want ErrTenantClosed", err)
	}
	if err := r.Unregister(idleTn); !errors.Is(err, rt.ErrTenantClosed) {
		t.Fatalf("double Unregister: %v, want ErrTenantClosed", err)
	}
	// Unregistering a running tenant defers to the in-flight slice: the
	// slice is charged, the backlog is dropped.
	d := r.Dispatch(0)
	if d == nil || d.Tenant() != busyTn {
		t.Fatal("expected busy tenant dispatch")
	}
	if err := r.Unregister(busyTn); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * simtime.Millisecond)
	if ran := d.Complete(true); ran != 2*simtime.Millisecond {
		t.Fatalf("in-flight slice charged %v", ran)
	}
	if d := r.Dispatch(0); d != nil {
		t.Fatal("unregistered tenant's backlog still dispatchable")
	}
	if len(r.Stats()) != 0 {
		t.Fatalf("stats still list %d tenants", len(r.Stats()))
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetWeightTakesEffect(t *testing.T) {
	r, clock := manualRuntime(t, 1, 4)
	defer r.Close()
	a, _ := r.Register("a", 1)
	b, _ := r.Register("b", 1)
	keep := func(tn *rt.Tenant) {
		for tn.Queued() < 2 {
			if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	keep(a)
	keep(b)
	for i := 0; i < 1000; i++ {
		keep(spinSlice(t, r, clock, 0, simtime.Millisecond))
	}
	if err := r.SetWeight(a, 3); err != nil {
		t.Fatal(err)
	}
	beforeA, beforeB := a.Thread().Service, b.Thread().Service
	for i := 0; i < 4000; i++ {
		keep(spinSlice(t, r, clock, 0, simtime.Millisecond))
	}
	dA := (a.Thread().Service - beforeA).Seconds()
	dB := (b.Thread().Service - beforeB).Seconds()
	if ratio := dA / dB; ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("post-SetWeight service ratio %.2f, want ~3", ratio)
	}
}

func TestDrainAndClose(t *testing.T) {
	r := rt.New(rt.Config{Workers: 2, QueueCap: 16})
	tn, err := r.Register("worky", 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 30; i++ {
		if err := tn.SubmitTask(rt.Once(func() {
			mu.Lock()
			ran++
			mu.Unlock()
		})); err != nil {
			t.Fatal(err)
		}
	}
	r.Drain()
	mu.Lock()
	if ran != 30 {
		t.Fatalf("Drain returned with %d/30 tasks executed", ran)
	}
	mu.Unlock()
	r.Close()
	r.Close() // idempotent
	if err := tn.SubmitTask(rt.Once(func() {})); !errors.Is(err, rt.ErrRuntimeClosed) {
		t.Fatalf("Submit after Close: %v, want ErrRuntimeClosed", err)
	}
	if _, err := r.Register("late", 1); !errors.Is(err, rt.ErrRuntimeClosed) {
		t.Fatalf("Register after Close: %v, want ErrRuntimeClosed", err)
	}
}

func TestTaskPanicContained(t *testing.T) {
	r := rt.New(rt.Config{Workers: 1, QueueCap: 8})
	defer r.Close()
	tn, _ := r.Register("chaotic", 1)
	calm, _ := r.Register("calm", 1)
	if err := calm.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	if err := tn.SubmitTask(rt.Once(func() { panic("handler bug") })); err != nil {
		t.Fatal(err)
	}
	ok := make(chan struct{})
	if err := tn.SubmitTask(rt.Once(func() { close(ok) })); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ok:
	case <-time.After(5 * time.Second):
		t.Fatal("worker wedged after task panic")
	}
	if n := r.TaskPanics(); n != 1 {
		t.Fatalf("TaskPanics = %d, want 1", n)
	}
	// The panic is attributed to the misbehaving tenant, not smeared over a
	// global counter.
	r.Drain()
	for _, s := range r.Stats() {
		want := int64(0)
		if s.Name == "chaotic" {
			want = 1
		}
		if s.TaskPanics != want {
			t.Fatalf("tenant %s TaskPanics = %d, want %d", s.Name, s.TaskPanics, want)
		}
	}
}

func TestErrorsAndValidation(t *testing.T) {
	r, _ := manualRuntime(t, 1, 4)
	defer r.Close()
	if _, err := r.Register("bad", -1); err == nil {
		t.Fatal("Register accepted a negative weight")
	}
	other, _ := manualRuntime(t, 1, 4)
	defer other.Close()
	foreign, _ := other.Register("foreign", 1)
	if err := r.SetWeight(foreign, 2); !errors.Is(err, rt.ErrForeignTenant) {
		t.Fatalf("SetWeight on foreign tenant: %v", err)
	}
	if err := r.Unregister(foreign); !errors.Is(err, rt.ErrForeignTenant) {
		t.Fatalf("Unregister on foreign tenant: %v", err)
	}
	mustPanic(t, "zero workers", func() { rt.New(rt.Config{Workers: 0}) })
	mustPanic(t, "scheduler mismatch", func() {
		rt.New(rt.Config{Workers: 2, Policy: func(int) sched.Scheduler { return core.New(4) }})
	})
	mustPanic(t, "nil scheduler from policy", func() {
		rt.New(rt.Config{Workers: 2, Policy: func(int) sched.Scheduler { return nil }})
	})
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

// TestHierarchicalRuntime backs the runtime with the two-level scheduler:
// two classes at 3:1, two tenants each, on two workers. The hierarchical GMS
// allocation gives class gold 1.5 CPUs and class bronze 0.5 (each thread
// capped at one CPU), so class service must split 3:1 and gold's members
// 50/50.
func TestHierarchicalRuntime(t *testing.T) {
	clock := rt.NewFakeClock()
	h := hier.New(2, 20*simtime.Millisecond)
	gold := h.MustAddClass("gold", 3)
	bronze := h.MustAddClass("bronze", 1)
	r := rt.New(rt.Config{Workers: 2, Policy: func(int) sched.Scheduler { return h },
		Clock: clock, QueueCap: 4, Manual: true})
	defer r.Close()
	classes := []*hier.Class{gold, gold, bronze, bronze}
	tenants := make([]*rt.Tenant, len(classes))
	for i, c := range classes {
		tn, err := r.Register(c.Name(), 1)
		if err != nil {
			t.Fatal(err)
		}
		h.Assign(tn.Thread(), c) // before the first Submit
		tenants[i] = tn
		for j := 0; j < 4; j++ {
			if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 6000; i++ {
		tn := spinSlice(t, r, clock, i%2, 5*simtime.Millisecond)
		for tn.Queued() < 4 {
			if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := gold.Service() + bronze.Service()
	if share := gold.Service() / total; share < 0.73 || share > 0.77 {
		t.Fatalf("gold class share %.3f, want ~0.75", share)
	}
	g0 := tenants[0].Thread().Service.Seconds()
	g1 := tenants[1].Thread().Service.Seconds()
	if ratio := g0 / g1; ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("intra-class split %.3f, want ~1", ratio)
	}
}
