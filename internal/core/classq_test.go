package core

import (
	"fmt"
	"slices"
	"testing"

	"sfsched/internal/runqueue"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// TestClassQueueSteadyState drives block/wake/charge/pick cycles next to a
// capped thread, whose φ — and so whose φ-class — changes with every arrival
// and departure. The cycle must not allocate (rt's *ZeroAlloc tests sit on
// top of it), and however many classes come and go, the queue holds exactly
// one per distinct φ and the class table stops growing: an emptied class
// leaves the queue at once and the next new φ takes over its storage.
func TestClassQueueSteadyState(t *testing.T) {
	const cpus, quantum = 4, 10 * simtime.Millisecond
	s := New(cpus, WithQuantum(quantum))
	threads := []*sched.Thread{mkThread(1, 500)} // over half the weight: capped
	for i := 1; i < 48; i++ {
		threads = append(threads, mkThread(i+1, float64(1+i%5)))
	}
	for _, th := range threads {
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	if threads[0].Phi == threads[0].Weight {
		t.Fatal("the heavy thread is not capped; the test would not churn classes")
	}
	var now simtime.Time
	running := make([]*sched.Thread, cpus)
	for cpu := range running {
		running[cpu] = s.Pick(cpu, now)
		running[cpu].CPU = cpu
	}
	i := 0
	cycle := func() {
		i++
		if v := threads[1+i%(len(threads)-1)]; !v.Running() {
			v.State = sched.Blocked
			if err := s.Remove(v, now); err != nil {
				t.Fatal(err)
			}
			v.State = sched.Runnable
			if err := s.Add(v, now); err != nil {
				t.Fatal(err)
			}
		}
		cpu := i % cpus
		th := running[cpu]
		now = now.Add(quantum)
		th.CPU, th.LastCPU = sched.NoCPU, cpu
		s.Charge(th, quantum, now)
		th = s.Pick(cpu, now)
		th.CPU, running[cpu] = cpu, th
	}
	for range 1000 {
		cycle() // scratch slices, the class table and the φ index reach their size
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("%v allocations per Remove+Add+Charge+Pick cycle, want 0", a)
	}
	for range 100_000 {
		cycle()
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, th := range threads {
		distinct[th.Phi] = true
	}
	if s.byClass.Len() != len(distinct) {
		t.Errorf("%d classes queued for %d distinct φ", s.byClass.Len(), len(distinct))
	}
	// The table holds the live classes and the free ones; it never needed
	// more than were live at once (the five weights and the capped φ).
	if len(s.classes) > len(distinct)+1 {
		t.Errorf("class table grew to %d entries for %d distinct φ", len(s.classes), len(distinct))
	}
}

// TestVirtualTimeIsTheLeastClassHead pins the exact-mode queue set: a runnable
// thread sits in its φ-class heap and in no per-thread start-tag queue (its
// SlotPrimary handle stays zero), and v — read off the class heads — is the
// least start tag of the runnable set after every transition that changes
// which thread, or which class, holds it: an arrival into the empty set, the
// removal of a class head and of a whole class, a charge of the head, and the
// φ hook moving the capped thread — here the holder of the least tag — to
// another class when the set around it changes.
func TestVirtualTimeIsTheLeastClassHead(t *testing.T) {
	s := New(2, WithQuantum(10*simtime.Millisecond))
	var runnable []*sched.Thread
	check := func(op string) {
		t.Helper()
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
		if len(runnable) == 0 {
			return
		}
		least := runnable[0].Start
		for _, th := range runnable {
			least = min(least, th.Start)
			if *th.RunqueueHandle(runqueue.SlotPrimary) != (runqueue.Handle[*sched.Thread]{}) {
				t.Fatalf("after %s: %v sits in a per-thread start-tag queue", op, th)
			}
		}
		if s.VirtualTime() != least {
			t.Fatalf("after %s: v = %g, least start tag %g", op, s.VirtualTime(), least)
		}
	}
	add := func(th *sched.Thread) {
		t.Helper()
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
		runnable = append(runnable, th)
		check(fmt.Sprintf("add %v", th))
	}
	remove := func(th *sched.Thread) {
		t.Helper()
		if err := s.Remove(th, 0); err != nil {
			t.Fatal(err)
		}
		runnable = slices.DeleteFunc(runnable, func(x *sched.Thread) bool { return x == th })
		check(fmt.Sprintf("remove %v", th))
	}
	charge := func(th *sched.Thread, ms int) {
		t.Helper()
		s.Charge(th, simtime.Duration(ms)*simtime.Millisecond, 0)
		check(fmt.Sprintf("charge %v", th))
	}

	// Empty → non-empty: v jumps from the last finish tag to the arrival's.
	late := mkThread(1, 1)
	late.Finish = 5
	add(late)
	if s.VirtualTime() != 5 {
		t.Fatalf("v = %g after the first arrival, want its tag 5", s.VirtualTime())
	}
	remove(late)

	heavy := mkThread(2, 100) // capped beside any crowd on 2 CPUs
	add(heavy)
	ones := []*sched.Thread{mkThread(3, 1), mkThread(4, 1), mkThread(5, 1)}
	twos := []*sched.Thread{mkThread(6, 2), mkThread(7, 2)}
	for _, th := range append(ones, twos...) {
		add(th)
	}
	if heavy.Phi == heavy.Weight {
		t.Fatal("the heavy thread is not capped; no arrival would move its class")
	}
	// Everyone but heavy runs ahead, so heavy alone — one thread, one class —
	// holds the least tag while arrivals and departures change its φ.
	for _, th := range append(ones, twos...) {
		charge(th, 10)
	}
	was := heavy.Phi
	remove(twos[1])
	add(twos[1])
	remove(ones[2])
	if heavy.Phi == was {
		t.Fatal("the departure did not change the capped φ; the hook path went untested")
	}
	// The head of a class with followers, then a whole class, leave; then the
	// holder of the least tag is charged past everyone.
	charge(ones[1], 10)
	remove(ones[0])
	remove(twos[0])
	remove(twos[1])
	charge(heavy, 400)
	remove(heavy)
	remove(ones[1])
	if s.Runnable() != 0 {
		t.Fatalf("%d runnable after every thread left", s.Runnable())
	}
	add(ones[1])
}

// TestLazyRegimeIsIntact: with all weights distinct there are as many classes
// as threads (C = n = 128, far past a pick's free scan), and there a refresh
// must stay what it was — asked for by a pick whose scan ran long, never done
// because v moved: an O(C) re-key per charge is the cost the lazy keys exist
// to avoid. v moves on two charges in three; one in twenty is followed by a
// sweep (the test logs 996 of 20 000).
func TestLazyRegimeIsIntact(t *testing.T) {
	const cpus, n, charges = 4, 128, 20000
	s := New(cpus, WithQuantum(10*simtime.Millisecond))
	r := xrand.New(7)
	for i := 0; i < n; i++ {
		if err := s.Add(mkThread(i+1, 1+float64(i)/16+r.Float64()/32), 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.byClass.Len() != n {
		t.Fatalf("%d classes for %d distinct weights", s.byClass.Len(), n)
	}
	var now simtime.Time
	running := make([]*sched.Thread, cpus)
	for cpu := range running {
		running[cpu] = s.Pick(cpu, now)
		running[cpu].CPU = cpu
	}
	vMoves := 0
	for i := 0; i < charges; i++ {
		cpu := i % cpus
		th, q := running[cpu], simtime.Duration(1+r.Intn(10))*simtime.Millisecond
		now = now.Add(q)
		th.CPU, th.LastCPU = sched.NoCPU, cpu
		v := s.v
		s.Charge(th, q, now)
		if s.v != v {
			vMoves++
		}
		th = s.Pick(cpu, now)
		th.CPU, running[cpu] = cpu, th
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sweeps := s.Stats().SurplusSweeps
	t.Logf("%d charges, v moved on %d, %d sweeps", charges, vMoves, sweeps)
	if vMoves < charges/4 {
		t.Fatalf("v moved on %d of %d charges; the world does not tempt an eager refresh", vMoves, charges)
	}
	if sweeps == 0 || sweeps > charges/10 {
		t.Fatalf("%d sweeps over %d charges, want a small fraction of them (and not none: picks do ask)", sweeps, charges)
	}
}

// TestEagerClassesIsFreeScanBound: the refresh test reads a constant for the
// class counts at which a pick may visit every class, C ≤ freeScan(C). That
// set must be exactly C ≤ eagerClasses, at every count a queue can reach here.
func TestEagerClassesIsFreeScanBound(t *testing.T) {
	for c := 0; c <= 1_000_000; c++ {
		if within, want := c <= eagerClasses, c <= freeScan(c); within != want {
			t.Fatalf("C = %d: C ≤ eagerClasses (%d) is %v, C ≤ freeScan(C) = %d is %v",
				c, eagerClasses, within, freeScan(c), want)
		}
	}
}
