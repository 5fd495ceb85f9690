package readjust

import (
	"math"
	"testing"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

func at(s float64) simtime.Time { return simtime.Time(simtime.FromSeconds(s)) }

func TestSingleThreadGetsOneCPU(t *testing.T) {
	f := NewFluid(4)
	a := mkThread(1, 1)
	f.Add(a, 0)
	f.Advance(at(10))
	if got := f.Service(a); math.Abs(got-10) > 1e-9 {
		t.Fatalf("service %g, want 10 (one full CPU)", got)
	}
}

func TestProportionalSplit(t *testing.T) {
	// Three feasible threads 2:1:1 on p=2: rates 1, 0.5, 0.5.
	f := NewFluid(2)
	a, b, c := mkThread(1, 2), mkThread(2, 1), mkThread(3, 1)
	f.Add(a, 0)
	f.Add(b, 0)
	f.Add(c, 0)
	f.Advance(at(8))
	if got := f.Service(a); math.Abs(got-8) > 1e-9 {
		t.Fatalf("a: %g, want 8", got)
	}
	if got := f.Service(b); math.Abs(got-4) > 1e-9 {
		t.Fatalf("b: %g, want 4", got)
	}
	if got := f.Service(c); math.Abs(got-4) > 1e-9 {
		t.Fatalf("c: %g, want 4", got)
	}
}

func TestInfeasibleWeightCapped(t *testing.T) {
	// Example 1 weights: 1:10 on p=2 — GMS gives each a full CPU.
	f := NewFluid(2)
	a, b := mkThread(1, 1), mkThread(2, 10)
	f.Add(a, 0)
	f.Add(b, 0)
	f.Advance(at(5))
	if math.Abs(f.Service(a)-5) > 1e-9 || math.Abs(f.Service(b)-5) > 1e-9 {
		t.Fatalf("services %g, %g; want 5, 5", f.Service(a), f.Service(b))
	}
}

func TestChurnIntegration(t *testing.T) {
	// Figure 4 fluid: T1,T2 (1:10) from 0..15s; T3 (w=1) 15..30s; T2
	// leaves at 30s; run to 40s.
	f := NewFluid(2)
	t1, t2, t3 := mkThread(1, 1), mkThread(2, 10), mkThread(3, 1)
	f.Add(t1, 0)
	f.Add(t2, 0)
	f.Add(t3, at(15))
	f.Remove(t2, at(30))
	f.Advance(at(40))
	// T1: 15 (full CPU) + 15·0.5 (shares with T3) + 10 = 32.5.
	if got := f.Service(t1); math.Abs(got-32.5) > 1e-9 {
		t.Fatalf("T1 %g, want 32.5", got)
	}
	// T2: 15 + 15 (capped at one CPU) = 30.
	if got := f.Service(t2); math.Abs(got-30) > 1e-9 {
		t.Fatalf("T2 %g, want 30", got)
	}
	// T3: 7.5 + 10 = 17.5.
	if got := f.Service(t3); math.Abs(got-17.5) > 1e-9 {
		t.Fatalf("T3 %g, want 17.5", got)
	}
}

func TestLag(t *testing.T) {
	f := NewFluid(1)
	a := mkThread(1, 1)
	f.Add(a, 0)
	f.Advance(at(2))
	a.Service = simtime.FromSeconds(1.5)
	if got := f.Lag(a); math.Abs(got+0.5) > 1e-9 {
		t.Fatalf("lag %g, want -0.5", got)
	}
	if got := f.MaxAbsLag([]*sched.Thread{a}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("max abs lag %g", got)
	}
}

func TestIdempotentAddRemove(t *testing.T) {
	f := NewFluid(2)
	a := mkThread(1, 1)
	f.Add(a, 0)
	f.Add(a, 0) // duplicate: ignored
	f.Advance(at(1))
	if got := f.Service(a); math.Abs(got-1) > 1e-9 {
		t.Fatalf("service %g", got)
	}
	f.Remove(a, at(1))
	f.Remove(a, at(1)) // duplicate: ignored
	f.Advance(at(2))
	if got := f.Service(a); math.Abs(got-1) > 1e-9 {
		t.Fatalf("service accrued while removed: %g", got)
	}
}

func TestServiceRetainedAcrossBlocking(t *testing.T) {
	f := NewFluid(1)
	a, b := mkThread(1, 1), mkThread(2, 1)
	f.Add(a, 0)
	f.Add(b, 0)
	f.Remove(a, at(1))
	f.Add(a, at(2))
	f.Advance(at(3))
	// a: 0.5 (sharing) + 0 (blocked) + 0.5 (sharing) = 1.0.
	if got := f.Service(a); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("a service %g, want 1.0", got)
	}
	// b: 0.5 + 1.0 + 0.5 = 2.0.
	if got := f.Service(b); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("b service %g, want 2.0", got)
	}
}

func TestPanicsOnBadCPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFluid(0) did not panic")
		}
	}()
	NewFluid(0)
}
