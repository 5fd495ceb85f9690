// Tests for the per-shard MPSC intake ring (intake.go) and the submit-side
// hot path it carries: the raw ring protocol (claim/publish/consume lap
// handoff, full detection, tombstones), a fuzzed multi-producer FIFO/no-loss
// check that the race detector also replays from the seed corpus under
// `go test -race`, and the zero-allocation guarantee of SubmitTask — the
// submit-side twin of TestDispatchHotPathZeroAlloc.

package rt

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sfsched/internal/simtime"
)

// TestIntakeRing exercises the single-threaded ring protocol: fill to
// capacity, observe full, drain in order, and reuse the slots on the next
// lap (the seq = pos+cap retirement handoff).
func TestIntakeRing(t *testing.T) {
	var rg intakeRing
	rg.init()
	tn := &Tenant{}
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < intakeCap; i++ {
			slot, pos, ok := rg.claim()
			if !ok {
				t.Fatalf("lap %d: claim %d failed on a non-full ring", lap, i)
			}
			slot.tn = tn
			slot.at = simtime.Time(i)
			rg.publish(slot, pos)
		}
		if _, _, ok := rg.claim(); ok {
			t.Fatalf("lap %d: claim succeeded on a full ring", lap)
		}
		if n := rg.beginDrain(); n != intakeCap {
			t.Fatalf("lap %d: beginDrain = %d, want %d", lap, n, intakeCap)
		}
		for i := 0; i < intakeCap; i++ {
			got, _, at := rg.consume()
			if got != tn || at != simtime.Time(i) {
				t.Fatalf("lap %d: consume %d = (%p, %d), want (%p, %d)",
					lap, i, got, at, tn, i)
			}
		}
		if n := rg.beginDrain(); n != 0 {
			t.Fatalf("lap %d: beginDrain after full drain = %d, want 0", lap, n)
		}
	}

	// A tombstone (tn == nil after publish) must round-trip as nil: it is
	// how a producer voids a slot after losing a race with migration.
	slot, pos, ok := rg.claim()
	if !ok {
		t.Fatal("claim failed on an empty ring")
	}
	slot.tn = nil
	rg.publish(slot, pos)
	rg.beginDrain()
	if got, _, _ := rg.consume(); got != nil {
		t.Fatalf("tombstone consumed as %p, want nil", got)
	}
}

// FuzzIntakeRing drives the ring with concurrent producers against one
// consumer and asserts the MPSC contract: per-producer FIFO order, no lost
// items, no duplicated items. Each item encodes (producer, sequence) in its
// at field, so any protocol violation — a torn publish, a slot handed to two
// producers, a consume that laps the tail — shows up as an order or count
// mismatch. The seed corpus replays under the race job's `go test -race
// -short`, putting the detector on the claim/publish/consume edges too.
func FuzzIntakeRing(f *testing.F) {
	f.Add(uint8(1), uint16(1))
	f.Add(uint8(2), uint16(300)) // more than one lap through the ring
	f.Add(uint8(8), uint16(97))
	f.Fuzz(func(t *testing.T, nprod uint8, perProd uint16) {
		producers := 1 + int(nprod)%8
		each := 1 + int(perProd)%1024

		var rg intakeRing
		rg.init()
		tenants := make([]*Tenant, producers)
		for p := range tenants {
			tenants[p] = &Tenant{}
		}

		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for k := 0; k < each; k++ {
					for {
						slot, pos, ok := rg.claim()
						if !ok { // full: wait for the consumer
							runtime.Gosched()
							continue
						}
						slot.tn = tenants[p]
						slot.at = simtime.Time(int64(p)<<32 | int64(k))
						rg.publish(slot, pos)
						break
					}
				}
			}(p)
		}

		// Single consumer, as in the runtime (always under the shard lock).
		next := make([]int64, producers)
		byTenant := make(map[*Tenant]int, producers)
		for p, tn := range tenants {
			byTenant[tn] = p
		}
		total := producers * each
		for got := 0; got < total; {
			n := rg.beginDrain()
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for i := 0; i < n; i++ {
				tn, _, at := rg.consume()
				p, known := byTenant[tn]
				if !known {
					t.Fatalf("consumed unknown tenant %p", tn)
				}
				if gotP := int(int64(at) >> 32); gotP != p {
					t.Fatalf("item published by producer %d consumed under tenant of producer %d", gotP, p)
				}
				seq := int64(at) & 0xffffffff
				if seq != next[p] { // catches loss, duplication, reordering
					t.Fatalf("producer %d: consumed seq %d, want %d", p, seq, next[p])
				}
				next[p]++
				got++
			}
		}
		wg.Wait()
		if n := rg.beginDrain(); n != 0 {
			t.Fatalf("ring holds %d items after all were consumed", n)
		}
		for p := range next {
			if next[p] != int64(each) {
				t.Fatalf("producer %d: consumed %d items, want %d", p, next[p], each)
			}
		}
	})
}

// TestIntakeOverflowPreservesTenantFIFO is the two-route interleaving
// regression: a tenant whose Submit falls back to the locked slow path while
// its earlier submissions are still ring-resident must NOT have the slow-path
// task admitted ahead of them. The slow path guarantees this by draining the
// shard's intake ring before its direct admission (see the ring-full branch
// of Tenant.submit and enqueueSlow); this test would catch any reordering.
//
// The single worker is pinned by a gated task, so nothing drains the ring
// while one tenant submits more than intakeCap tasks from one goroutine:
// submission intakeCap+1 finds the ring full with every earlier submission
// still ring-resident — exactly the inversion window — and later submissions
// land in the ring again behind the slow-path admission, interleaving the
// two routes both ways. The recorded execution order must be submission
// order.
func TestIntakeOverflowPreservesTenantFIFO(t *testing.T) {
	const n = intakeCap + intakeCap/2 // forces the ring-full slow path mid-burst
	r := New(Config{Workers: 1, Quantum: simtime.Millisecond,
		Intake: IntakeConfig{QueueCap: n + 1}})
	defer r.Close()
	gate, err := r.Register("gate", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Register("rec", 1)
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	release := make(chan struct{})
	if err := gate.SubmitTask(Once(func() {
		close(running)
		<-release
	})); err != nil {
		t.Fatal(err)
	}
	<-running // the only worker is now pinned; the intake ring cannot drain
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		if err := rec.SubmitTask(Once(func() { order = append(order, i) })); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	r.Drain()
	if len(order) != n {
		t.Fatalf("ran %d tasks, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("per-tenant FIFO inversion: position %d ran task %d", i, got)
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIntakeFullBacklogFull is the degradation when both bounds are hit at
// once: the shard's intake ring is full and so is a tenant's backlog
// (QueueCap). A NoWait submit fails with ErrBackpressure and changes nothing;
// a blocking submit waits for a slot and then runs behind every earlier task
// of its tenant; Unregister and Close release a blocked submitter with
// ErrTenantClosed and ErrRuntimeClosed. As in
// TestIntakeOverflowPreservesTenantFIFO, a gated task pins the only worker,
// so nothing drains the ring until the gate opens.
func TestIntakeFullBacklogFull(t *testing.T) {
	const qcap = intakeCap / 4
	type state struct {
		r       *Runtime
		b       *Tenant
		sh      *shard
		order   []int // b's tasks, in the order they ran
		release func()
	}
	fill := func(t *testing.T) *state {
		st := &state{r: New(Config{Workers: 1, Quantum: simtime.Millisecond,
			Intake: IntakeConfig{QueueCap: qcap}})}
		t.Cleanup(st.r.Close)
		register := func(name string) *Tenant {
			tn, err := st.r.Register(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			return tn
		}
		running, gate := make(chan struct{}), make(chan struct{})
		var once sync.Once
		st.release = func() { once.Do(func() { close(gate) }) }
		t.Cleanup(st.release) // runs before Close, which waits for the gated task
		if err := register("gate").SubmitTask(Once(func() {
			close(running)
			<-gate
		})); err != nil {
			t.Fatal(err)
		}
		<-running
		// Three fillers and b take a quarter of the ring each.
		for f := 0; f < 3; f++ {
			tn := register("filler")
			for i := 0; i < qcap; i++ {
				if err := tn.SubmitTask(Once(func() {})); err != nil {
					t.Fatal(err)
				}
			}
		}
		st.b = register("b")
		for i := 0; i < qcap; i++ {
			if err := st.b.SubmitTask(Once(func() { st.order = append(st.order, i) })); err != nil {
				t.Fatal(err)
			}
		}
		st.sh = st.b.sh.Load()
		st.sh.mu.Lock()
		inRing := st.sh.intake.beginDrain()
		st.sh.mu.Unlock()
		if inRing != intakeCap || st.b.Queued() != qcap {
			t.Fatalf("ring holds %d of %d, b's backlog %d of %d: not both full",
				inRing, intakeCap, st.b.Queued(), qcap)
		}
		return st
	}
	// blocked submits b's next task from its own goroutine and returns once
	// the submitter waits for a backlog slot.
	blocked := func(t *testing.T, st *state) <-chan error {
		done := make(chan error, 1)
		go func() { done <- st.b.SubmitTask(Once(func() { st.order = append(st.order, qcap) })) }()
		for {
			st.sh.mu.Lock()
			w := st.b.waiters
			st.sh.mu.Unlock()
			if w > 0 {
				break
			}
			select {
			case err := <-done:
				t.Fatalf("a blocking submit against a full backlog returned %v", err)
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		return done
	}
	// ranInOrder drains the runtime and checks b ran its first n tasks in
	// submission order.
	ranInOrder := func(t *testing.T, st *state, n int) {
		st.release()
		st.r.Drain()
		if len(st.order) != n {
			t.Fatalf("b ran %d tasks, want %d", len(st.order), n)
		}
		for i, got := range st.order {
			if got != i {
				t.Fatalf("b's position %d ran task %d", i, got)
			}
		}
		if err := st.r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("NoWait", func(t *testing.T) {
		st := fill(t)
		queued, tasks := st.b.Queued(), st.sh.tasks.Load()
		if err := st.b.SubmitTask(Once(func() {}), NoWait()); !errors.Is(err, ErrBackpressure) {
			t.Fatalf("NoWait submit: %v, want ErrBackpressure", err)
		}
		if st.b.Queued() != queued || st.sh.tasks.Load() != tasks {
			t.Fatalf("a refused submit moved Queued %d → %d, shard tasks %d → %d",
				queued, st.b.Queued(), tasks, st.sh.tasks.Load())
		}
		if err := st.r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		ranInOrder(t, st, qcap)
	})
	t.Run("blocking", func(t *testing.T) {
		st := fill(t)
		done := blocked(t, st)
		st.release()
		if err := <-done; err != nil {
			t.Fatalf("blocked submit: %v", err)
		}
		ranInOrder(t, st, qcap+1)
	})
	t.Run("Unregister", func(t *testing.T) {
		st := fill(t)
		done := blocked(t, st)
		if err := st.r.Unregister(st.b); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, ErrTenantClosed) {
			t.Fatalf("blocked submit after Unregister: %v, want ErrTenantClosed", err)
		}
		st.release()
		st.r.Drain()
		if err := st.r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("Close", func(t *testing.T) {
		st := fill(t)
		done := blocked(t, st)
		closed := make(chan struct{})
		go func() {
			st.r.Close() // waits for the gated task
			close(closed)
		}()
		if err := <-done; !errors.Is(err, ErrRuntimeClosed) {
			t.Fatalf("blocked submit after Close: %v, want ErrRuntimeClosed", err)
		}
		st.release()
		<-closed
	})
}

// TestSubmitHotPathZeroAlloc pins the 0 allocs/op guarantee of the submit
// side: the intake-ring path (claim, publish, doorbell, batched drain). It is
// the submit-side twin of TestDispatchHotPathZeroAlloc: a steady wakeup
// regime where every submit re-enters the scheduler, runs the backpressure
// reservation, and wakes the tenant, under a Manual runtime so the whole
// cycle stays on one goroutine.
func TestSubmitHotPathZeroAlloc(t *testing.T) {
	clock := NewFakeClock()
	r := New(Config{Workers: 1, Quantum: 10 * simtime.Millisecond,
		Clock: clock, Manual: true,
		Intake: IntakeConfig{QueueCap: 4}})
	defer r.Close()
	tn, err := r.Register("zero", 1)
	if err != nil {
		t.Fatal(err)
	}
	task := Once(func() {})
	cycle := func() {
		if err := tn.SubmitTask(task); err != nil { // wakeup: backlog is empty
			t.Fatal(err)
		}
		d := r.Dispatch(0)
		clock.Advance(simtime.Millisecond)
		d.Complete(true) // backlog empty again: tenant blocks
	}
	for i := 0; i < 100; i++ {
		cycle() // warm up free-lists and queue capacity
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("submit hot path allocates %.1f per cycle, want 0", n)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitTaskOptionsZeroAlloc pins that the unified SubmitTask entry
// point stays allocation-free with options at the call site: SubmitOption is
// a plain value and the variadic backing array never escapes, so NoWait and
// Preemptible cost nothing over the bare call.
func TestSubmitTaskOptionsZeroAlloc(t *testing.T) {
	clock := NewFakeClock()
	r := New(Config{Workers: 1, Quantum: 10 * simtime.Millisecond,
		Clock: clock, Manual: true,
		Intake: IntakeConfig{QueueCap: 4}})
	defer r.Close()
	tn, err := r.Register("zero", 1)
	if err != nil {
		t.Fatal(err)
	}
	task := Once(func() {})
	pre := PreemptibleTask(func(SliceCtx) bool { return true })
	cycle := func() {
		if err := tn.SubmitTask(task, NoWait()); err != nil {
			t.Fatal(err)
		}
		if err := tn.SubmitTask(nil, NoWait(), Preemptible(pre)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			d := r.Dispatch(0)
			clock.Advance(simtime.Millisecond)
			d.Complete(true)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("SubmitTask with options allocates %.1f per cycle, want 0", n)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
