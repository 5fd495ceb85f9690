package core

import (
	"testing"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
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
