package stride

// What is stride's alone: the cached stride and the quantum-denominated pass.
// Everything the GPS-tag kernel does for all three policies is tested once in
// internal/vtq.

import (
	"math"
	"testing"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/vtq"
)

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

func add(t *testing.T, s *Stride, ths ...*sched.Thread) {
	t.Helper()
	for _, th := range ths {
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStrideInverseToWeight(t *testing.T) {
	s := New(1)
	a := mkThread(1, 4)
	add(t, s, a)
	if a.Stride != Stride1/4 {
		t.Fatalf("stride %g", a.Stride)
	}
}

func TestPartialQuantumAdvancesPassProportionally(t *testing.T) {
	s := New(1, WithQuantum(100*simtime.Millisecond))
	a := mkThread(1, 1)
	add(t, s, a)
	s.Charge(a, 50*simtime.Millisecond, 0) // half a quantum
	if math.Abs(a.Pass-0.5*a.Stride) > 1e-12 {
		t.Fatalf("pass %g, want half a stride", a.Pass)
	}
}

func TestStrideFollowsReadjustedPhi(t *testing.T) {
	s := New(2, vtq.WithReadjustment())
	a, b := mkThread(1, 1), mkThread(2, 10)
	add(t, s, a, b)
	if b.Phi != 1 || b.Stride != Stride1 {
		t.Fatalf("φ=%g stride=%g, want 1, %g", b.Phi, b.Stride, Stride1)
	}
	// Another thread's arrival readjusts b's φ; the cached stride must not
	// wait for b's next charge, or a preemption rank in between is stale.
	add(t, s, mkThread(3, 1))
	if b.Phi != 2 || b.Stride != Stride1/2 {
		t.Fatalf("after an arrival: φ=%g stride=%g, want 2, %g", b.Phi, b.Stride, Stride1/2)
	}
}

func TestSetWeightUpdatesStride(t *testing.T) {
	s := New(2)
	a, b := mkThread(1, 1), mkThread(2, 1)
	add(t, s, a, b)
	if err := s.SetWeight(a, 2, 0); err != nil {
		t.Fatal(err)
	}
	if a.Stride != Stride1/2 {
		t.Fatalf("stride %g", a.Stride)
	}
	// Blocked thread: weight stored for later.
	c := mkThread(3, 1)
	if err := s.SetWeight(c, 4, 0); err != nil {
		t.Fatal(err)
	}
	if c.Stride != Stride1/4 {
		t.Fatalf("blocked stride %g", c.Stride)
	}
}
