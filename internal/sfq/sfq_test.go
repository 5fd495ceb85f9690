package sfq

// What is SFQ's alone: the paper's Example 1 and its cure. Everything the
// GPS-tag kernel does for all three policies is tested once in internal/vtq.

import (
	"math"
	"testing"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

func TestExample1Starvation(t *testing.T) {
	// The paper's Example 1 exactly: p=2, w1=1, w2=10, q=1ms. After 1000
	// quanta each, a third thread (w=1) arrives with S=v=min(S_i)=100ms
	// worth of tag; threads 2 and 3 then run while thread 1 starves.
	s := New(2)
	const q = simtime.Millisecond
	t1 := mkThread(1, 1)
	t2 := mkThread(2, 10)
	if err := s.Add(t1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(t2, 0); err != nil {
		t.Fatal(err)
	}
	now := simtime.Time(0)
	for i := 0; i < 1000; i++ {
		a := s.Pick(0, now)
		a.CPU = 0
		b := s.Pick(1, now)
		b.CPU = 1
		now = now.Add(q)
		s.Charge(a, q, now)
		s.Charge(b, q, now)
		a.CPU, b.CPU = sched.NoCPU, sched.NoCPU
	}
	// S1 = 1000·1ms/1 = 1.0; S2 = 1000·1ms/10 = 0.1.
	if math.Abs(t1.Start-1.0) > 1e-9 || math.Abs(t2.Start-0.1) > 1e-9 {
		t.Fatalf("tags S1=%g S2=%g, want 1.0, 0.1", t1.Start, t2.Start)
	}
	t3 := mkThread(3, 1)
	if err := s.Add(t3, 0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(t3.Start-0.1) > 1e-9 {
		t.Fatalf("new arrival S3=%g, want v=0.1", t3.Start)
	}
	// For the next 890 quanta pairs, thread 1 must never be picked.
	before := t1.Service
	for i := 0; i < 890; i++ {
		a := s.Pick(0, now)
		a.CPU = 0
		b := s.Pick(1, now)
		b.CPU = 1
		if a == t1 || b == t1 {
			t.Fatalf("thread 1 scheduled during starvation window (round %d)", i)
		}
		now = now.Add(q)
		s.Charge(a, q, now)
		s.Charge(b, q, now)
		a.CPU, b.CPU = sched.NoCPU, sched.NoCPU
	}
	if t1.Service != before {
		t.Fatal("thread 1 accumulated service while starving")
	}
}

func TestReadjustmentPreventsStarvation(t *testing.T) {
	// With readjustment, 1:10 becomes 1:1, so after T3 (w=1) arrives the
	// instantaneous weights are 1:2:1 and T1 keeps running.
	s := New(2, WithReadjustment())
	const q = simtime.Millisecond
	t1 := mkThread(1, 1)
	t2 := mkThread(2, 10)
	if err := s.Add(t1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(t2, 0); err != nil {
		t.Fatal(err)
	}
	now := simtime.Time(0)
	for i := 0; i < 1000; i++ {
		a := s.Pick(0, now)
		a.CPU = 0
		b := s.Pick(1, now)
		b.CPU = 1
		now = now.Add(q)
		s.Charge(a, q, now)
		s.Charge(b, q, now)
		a.CPU, b.CPU = sched.NoCPU, sched.NoCPU
	}
	// Tags advanced at φ=1 for both: S1 = S2 = 1.0.
	if math.Abs(t1.Start-1.0) > 1e-9 || math.Abs(t2.Start-1.0) > 1e-9 {
		t.Fatalf("tags S1=%g S2=%g, want 1.0, 1.0", t1.Start, t2.Start)
	}
	t3 := mkThread(3, 1)
	if err := s.Add(t3, 0); err != nil {
		t.Fatal(err)
	}
	if t1.Phi != 1 || t2.Phi != 2 || t3.Phi != 1 {
		t.Fatalf("φ = %g:%g:%g, want 1:2:1", t1.Phi, t2.Phi, t3.Phi)
	}
	before := t1.Service
	for i := 0; i < 1000; i++ {
		a := s.Pick(0, now)
		a.CPU = 0
		b := s.Pick(1, now)
		b.CPU = 1
		now = now.Add(q)
		s.Charge(a, q, now)
		s.Charge(b, q, now)
		a.CPU, b.CPU = sched.NoCPU, sched.NoCPU
	}
	gained := (t1.Service - before).Seconds()
	// T1's share is 1/4 of 2 CPUs = 0.5 of the 1 s window.
	if math.Abs(gained-0.5) > 0.05 {
		t.Fatalf("T1 gained %.3fs in 1s window, want ~0.5s", gained)
	}
}
