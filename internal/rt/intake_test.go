// Tests for the per-shard MPSC intake ring (intake.go) and the submit-side
// hot path it carries: the raw ring protocol (claim/publish/consume lap
// handoff, full detection, tombstones), a fuzzed multi-producer FIFO/no-loss
// check that the race detector also replays from the seed corpus under
// `go test -race`, and the zero-allocation guarantee of SubmitTask — the
// submit-side twin of TestDispatchHotPathZeroAlloc.

package rt

import (
	"runtime"
	"sync"
	"testing"

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
	r := New(Config{Workers: 1, Quantum: simtime.Millisecond, QueueCap: n + 1})
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

// TestSubmitHotPathZeroAlloc pins the 0 allocs/op guarantee of the submit
// side: the intake-ring path (claim, publish, doorbell, batched drain). It is
// the submit-side twin of TestDispatchHotPathZeroAlloc: a steady wakeup
// regime where every submit re-enters the scheduler, runs the backpressure
// reservation, and wakes the tenant, under a Manual runtime so the whole
// cycle stays on one goroutine.
func TestSubmitHotPathZeroAlloc(t *testing.T) {
	clock := NewFakeClock()
	r := New(Config{Workers: 1, Quantum: 10 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true})
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
		Clock: clock, QueueCap: 4, Manual: true})
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
