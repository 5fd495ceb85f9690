package rt_test

// Tests of the node seam (node.go): the Deport/Admit migration pair the
// cluster tier composes, the Load summary, and the unified SubmitTask entry
// point with its options.

import (
	"errors"
	"testing"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

func newManualPair(t *testing.T) (*rt.Runtime, *rt.Runtime, *rt.FakeClock) {
	t.Helper()
	clock := rt.NewFakeClock()
	mk := func() *rt.Runtime {
		return rt.New(rt.Config{Workers: 2, Quantum: 20 * simtime.Millisecond,
			Clock: clock, Manual: true,
			Intake: rt.IntakeConfig{QueueCap: 8}})
	}
	r1, r2 := mk(), mk()
	t.Cleanup(func() { r1.Close(); r2.Close() })
	return r1, r2, clock
}

// tickOnce dispatches every worker once, advances the clock a slice, and
// completes.
func tickOnce(t *testing.T, r *rt.Runtime, clock *rt.FakeClock, slice simtime.Duration) {
	t.Helper()
	var ds []*rt.Dispatched
	for w := 0; w < r.Workers(); w++ {
		if d := r.Dispatch(w); d != nil {
			ds = append(ds, d)
		}
	}
	clock.Advance(slice)
	for _, d := range ds {
		d.Complete(true)
	}
}

// TestDeportAdmitCarriesState migrates a tenant with accrued service and a
// queued backlog between two runtimes and requires everything to survive:
// name, weight, charged service (continuous across the move), and the
// backlog replayed in FIFO order on the destination.
func TestDeportAdmitCarriesState(t *testing.T) {
	r1, r2, clock := newManualPair(t)
	tn, err := r1.Register("mig", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.SubmitTask(rt.Once(func() {})); err != nil {
		t.Fatal(err)
	}
	tickOnce(t, r1, clock, 5*simtime.Millisecond)
	if tn.Service() <= 0 {
		t.Fatal("no service accrued before the move")
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		if err := tn.SubmitTask(rt.Once(func() { order = append(order, i) })); err != nil {
			t.Fatal(err)
		}
	}
	dep, err := r1.Deport(tn)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Name != "mig" || dep.Weight != 3 || len(dep.Backlog) != 3 {
		t.Fatalf("departure %+v, want name=mig weight=3 backlog=3", dep)
	}
	// The departure holds the backlog in submission order (Manual-mode
	// closures are inert payloads, so invoking them here observes capture
	// order directly).
	for _, q := range dep.Backlog {
		if q.Run == nil || q.Pre != nil {
			t.Fatalf("backlog entry %+v, want the plain-task form", q)
		}
		q.Run(0)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("backlog captured out of order: %v", order)
	}
	if dep.Service <= 0 {
		t.Fatal("departure lost the charged service")
	}
	if _, err := r1.Deport(tn); !errors.Is(err, rt.ErrTenantClosed) {
		t.Fatalf("second Deport: %v, want ErrTenantClosed", err)
	}
	if err := tn.SubmitTask(rt.Once(func() {})); !errors.Is(err, rt.ErrTenantClosed) {
		t.Fatalf("submit after Deport: %v, want ErrTenantClosed", err)
	}
	if load := r1.Load(); load.Tenants != 0 || load.Weight != 0 || load.Queued != 0 {
		t.Fatalf("source load %+v after deport, want empty", load)
	}

	tn2, err := r2.Admit(dep)
	if err != nil {
		t.Fatal(err)
	}
	if tn2.Service() != dep.Service {
		t.Fatalf("admitted service %v, want the carried %v", tn2.Service(), dep.Service)
	}
	if tn2.Queued() != 3 {
		t.Fatalf("admitted backlog %d, want 3", tn2.Queued())
	}
	if load := r2.Load(); load.Tenants != 1 || load.Weight != 3 || load.Queued != 3 {
		t.Fatalf("destination load %+v, want 1 tenant / weight 3 / 3 queued", load)
	}
	for i := 0; i < 3; i++ {
		tickOnce(t, r2, clock, simtime.Millisecond)
	}
	if tn2.Queued() != 0 {
		t.Fatalf("replayed backlog not consumed: %d left", tn2.Queued())
	}
	if err := r1.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := r2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeportRefusesBusy pins the transient-refusal conditions: a running
// slice fails with ErrMigrationRace, while a tenant whose head task is merely
// unfinished (last dispatch returned false) deports fine — the continuation
// travels in the backlog and resumes on the destination, exactly as the next
// local dispatch would have resumed it. The paper's compute-bound tenants
// never retire their head task, so refusing them would make exactly the
// tenants worth migrating unmovable.
func TestDeportRefusesBusy(t *testing.T) {
	r1, r2, clock := newManualPair(t)
	tn, err := r1.Register("busy", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Running: a dispatched slice is in flight.
	if err := tn.SubmitTask(func(simtime.Duration) bool { return false }); err != nil {
		t.Fatal(err)
	}
	d := r1.Dispatch(0)
	if d == nil {
		t.Fatal("no dispatch")
	}
	if _, err := r1.Deport(tn); !errors.Is(err, rt.ErrMigrationRace) {
		t.Fatalf("Deport while running: %v, want ErrMigrationRace", err)
	}
	clock.Advance(simtime.Millisecond)
	d.Complete(false)
	// Unfinished head task, no slice in flight: deportable, and the
	// continuation rides along in the backlog.
	dep, err := r1.Deport(tn)
	if err != nil {
		t.Fatalf("Deport of an unfinished-but-idle tenant: %v", err)
	}
	if len(dep.Backlog) != 1 || dep.Backlog[0].Run == nil {
		t.Fatalf("departure backlog %+v, want the one unfinished plain task", dep.Backlog)
	}
	tn2, err := r2.Admit(dep)
	if err != nil {
		t.Fatal(err)
	}
	// The continuation resumes on the destination.
	d = r2.Dispatch(0)
	if d == nil {
		t.Fatal("no continuation dispatch on the destination")
	}
	clock.Advance(simtime.Millisecond)
	d.Complete(true)
	if tn2.Queued() != 0 {
		t.Fatalf("continuation not consumed: %d queued", tn2.Queued())
	}
	// Idle with an empty backlog: the move goes through carrying nothing.
	dep, err = r2.Deport(tn2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Backlog) != 0 {
		t.Fatalf("idle tenant deported with backlog %d", len(dep.Backlog))
	}
	if _, err := r1.Admit(dep); err != nil {
		t.Fatal(err)
	}
	// Foreign handles are rejected outright.
	other, err := r2.Register("other", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Deport(other); !errors.Is(err, rt.ErrForeignTenant) {
		t.Fatalf("foreign Deport: %v, want ErrForeignTenant", err)
	}
}

// TestSubmitTaskOptions pins the unified submit entry point: NoWait converts
// blocking into ErrBackpressure, Preemptible routes to the cooperative form
// (the task really executes with a SliceCtx on a concurrent runtime), and
// the misuse cases panic.
func TestSubmitTaskOptions(t *testing.T) {
	// Backpressure and misuse: a Manual runtime whose backlog never drains.
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 1, Clock: clock, Manual: true,
		Intake: rt.IntakeConfig{QueueCap: 2}})
	defer r.Close()
	tn, err := r.Register("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := tn.SubmitTask(rt.Once(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); !errors.Is(err, rt.ErrBackpressure) {
		t.Fatalf("NoWait on a full backlog: %v, want ErrBackpressure", err)
	}
	mustPanicNode(t, "nil task", func() { _ = tn.SubmitTask(nil) })
	mustPanicNode(t, "both forms", func() {
		_ = tn.SubmitTask(rt.Once(func() {}), rt.Preemptible(func(rt.SliceCtx) bool { return true }))
	})

	// Execution routing: real workers run both forms.
	rc := rt.New(rt.Config{Workers: 1,
		Intake: rt.IntakeConfig{QueueCap: 4}})
	defer rc.Close()
	tc, err := rc.Register("c", 1)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan string, 2)
	if err := tc.SubmitTask(nil, rt.Preemptible(func(ctx rt.SliceCtx) bool {
		if ctx.Slice() <= 0 {
			t.Error("preemptible task got no slice")
		}
		ran <- "pre"
		return true
	})); err != nil {
		t.Fatal(err)
	}
	if err := tc.SubmitTask(func(simtime.Duration) bool {
		ran <- "plain"
		return true
	}); err != nil {
		t.Fatal(err)
	}
	rc.Drain()
	if got := <-ran; got != "pre" {
		t.Fatalf("first completed task %q, want the preemptible one", got)
	}
	if got := <-ran; got != "plain" {
		t.Fatalf("second completed task %q, want the plain one", got)
	}
}

func mustPanicNode(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
