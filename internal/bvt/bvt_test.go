package bvt

// What is BVT's alone: the warp, and the reduction to SFQ without it.
// Everything the GPS-tag kernel does for all three policies is tested once in
// internal/vtq.

import (
	"testing"

	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

func add(t *testing.T, s sched.Scheduler, ths ...*sched.Thread) {
	t.Helper()
	for _, th := range ths {
		th.State = sched.Runnable
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestZeroWarpMatchesSFQ(t *testing.T) {
	// "BVT reduces to SFQ when the latency parameter is set to zero"
	// (§1.2): on one scripted workload with blocking, wakeups and a
	// reweight, every pick is the same thread and every A_i is bit-equal to
	// the start tag SFQ holds for that thread, as is the virtual time.
	b, q := New(2), sfq.New(2)
	var bs, qs []*sched.Thread
	for id, w := range []float64{1, 5, 2, 2, 7} {
		bs, qs = append(bs, mkThread(id+1, w)), append(qs, mkThread(id+1, w))
	}
	add(t, b, bs...)
	add(t, q, qs...)
	sides := []struct {
		s   sched.Scheduler
		ths []*sched.Thread
	}{{b, bs}, {q, qs}}
	r := xrand.New(3)
	now := simtime.Time(0)
	for i := 0; i < 2000; i++ {
		bt, qt := b.Pick(0, now), q.Pick(0, now)
		if bt.ID != qt.ID {
			t.Fatalf("decision %d: BVT=%d SFQ=%d", i, bt.ID, qt.ID)
		}
		ran := simtime.Duration(1+r.Intn(100)) * simtime.Millisecond
		now = now.Add(ran)
		b.Charge(bt, ran, now)
		q.Charge(qt, ran, now)
		j, w := r.Intn(len(bs)), float64(1+r.Intn(9))
		for _, side := range sides {
			th := side.ths[j]
			var err error
			switch op := (i * 7) % 8; {
			case op == 0 && th.State == sched.Runnable && side.s.Runnable() > 1:
				th.State = sched.Blocked
				err = side.s.Remove(th, now)
			case op < 4 && th.State == sched.Blocked:
				th.State = sched.Runnable
				err = side.s.Add(th, now)
			case op == 4:
				err = side.s.SetWeight(th, w, now)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if b.VirtualTime() != q.VirtualTime() {
			t.Fatalf("decision %d: v BVT=%g SFQ=%g", i, b.VirtualTime(), q.VirtualTime())
		}
		for j := range bs {
			if bs[j].Start != qs[j].Start {
				t.Fatalf("decision %d thread %d: A=%g, SFQ start tag %g", i, bs[j].ID, bs[j].Start, qs[j].Start)
			}
		}
	}
}

func TestWarpGivesLatencyAdvantage(t *testing.T) {
	s := New(1)
	a, b := mkThread(1, 1), mkThread(2, 1)
	add(t, s, a, b)
	// Equal virtual times; warp makes b effectively earlier.
	s.SetWarp(b, 0.5)
	if got := s.Pick(0, 0); got != b {
		t.Fatalf("Pick = %v, want warped thread", got)
	}
	if !s.Less(b, a) {
		t.Fatal("Less must honour warp")
	}
	if s.PreemptRank(b, 0) != -0.5 || s.FreshSurplus(b) != 0 {
		t.Fatalf("rank %g surplus %g: the warp is a preemption credit, not banked service",
			s.PreemptRank(b, 0), s.FreshSurplus(b))
	}
}

func TestVirtualTimeIsMinimumActualNotEffective(t *testing.T) {
	s := New(1)
	a, b := mkThread(1, 1), mkThread(2, 1)
	add(t, s, a, b)
	s.SetWarp(b, 0.5)
	// b runs ahead on its warp: it still heads the queue (E_b = 0.3 − 0.5)
	// but the scheduler virtual time is the least A_i, which is a's.
	s.Charge(b, 300*simtime.Millisecond, 0)
	s.Charge(a, 100*simtime.Millisecond, 0)
	if got := s.Pick(0, 0); got != b {
		t.Fatalf("Pick = %v, want the warped thread", got)
	}
	if s.VirtualTime() != a.Start {
		t.Fatalf("v = %g, want min A_i = %g", s.VirtualTime(), a.Start)
	}
	// With the warp gone the order is SFQ's again and so is v.
	s.SetWarp(b, 0)
	s.Charge(a, 100*simtime.Millisecond, 0)
	if got := s.Pick(0, 0); got != a || s.VirtualTime() != a.Start {
		t.Fatalf("Pick = %v, v = %g, want thread 1 at %g", got, s.VirtualTime(), a.Start)
	}
	s.Charge(a, 300*simtime.Millisecond, 0)
	if s.VirtualTime() != b.Start {
		t.Fatalf("v = %g, want the new head's A_i = %g", s.VirtualTime(), b.Start)
	}
}
