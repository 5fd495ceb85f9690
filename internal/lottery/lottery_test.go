package lottery

import (
	"errors"
	"math"
	"testing"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

func TestExpectedProportions(t *testing.T) {
	// 3:1 tickets on a uniprocessor: long-run service ratio ~3 (within
	// sampling noise for 20k drawings).
	l := New(1, WithSeed(7), WithQuantum(10*simtime.Millisecond))
	a := mkThread(1, 3)
	b := mkThread(2, 1)
	if err := l.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	now := simtime.Time(0)
	for i := 0; i < 20000; i++ {
		th := l.Pick(0, now)
		if th == nil {
			t.Fatal("idle with runnable threads")
		}
		th.CPU = 0
		now = now.Add(10 * simtime.Millisecond)
		l.Charge(th, 10*simtime.Millisecond, now)
		th.CPU = sched.NoCPU
	}
	ratio := a.Service.Seconds() / b.Service.Seconds()
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("ratio %.3f, want ~3", ratio)
	}
	if l.Picks() != 20000 {
		t.Fatalf("picks %d", l.Picks())
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	trace := func() []int {
		l := New(1, WithSeed(42))
		for i := 0; i < 5; i++ {
			if err := l.Add(mkThread(i+1, float64(i+1)), 0); err != nil {
				t.Fatal(err)
			}
		}
		var ids []int
		for i := 0; i < 200; i++ {
			th := l.Pick(0, 0)
			ids = append(ids, th.ID)
		}
		return ids
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drawing diverged at %d", i)
		}
	}
}

func TestSkipsRunning(t *testing.T) {
	l := New(2)
	a := mkThread(1, 1000000) // holds almost all tickets
	b := mkThread(2, 1)
	if err := l.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	a.CPU = 0
	for i := 0; i < 100; i++ {
		if got := l.Pick(1, 0); got != b {
			t.Fatalf("picked running thread's tickets: %v", got)
		}
	}
	b.CPU = 1
	if l.Pick(0, 0) != nil {
		t.Fatal("picked with everyone running")
	}
}

func TestErrors(t *testing.T) {
	l := New(2)
	a := mkThread(1, 1)
	if err := l.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(a, 0); !errors.Is(err, sched.ErrAlreadyManaged) {
		t.Fatalf("double add: %v", err)
	}
	if err := l.Remove(mkThread(9, 1), 0); !errors.Is(err, sched.ErrNotManaged) {
		t.Fatalf("remove unmanaged: %v", err)
	}
	if err := l.Add(mkThread(2, 0), 0); !errors.Is(err, sched.ErrBadWeight) {
		t.Fatalf("bad weight: %v", err)
	}
	if err := l.SetWeight(a, -1, 0); !errors.Is(err, sched.ErrBadWeight) {
		t.Fatalf("bad setweight: %v", err)
	}
	if err := l.SetWeight(a, 4, 0); err != nil || a.Weight != 4 {
		t.Fatal("setweight on runnable")
	}
	off := mkThread(3, 1)
	if err := l.SetWeight(off, 2, 0); err != nil || off.Weight != 2 {
		t.Fatal("setweight on blocked")
	}
	if l.NumCPU() != 2 || l.Runnable() != 1 || len(l.Threads()) != 1 {
		t.Fatal("accessors")
	}
	if got := l.Timeslice(a, 0); got != 200*simtime.Millisecond {
		t.Fatalf("timeslice %v", got)
	}
	if l.Name() != "lottery" {
		t.Fatalf("name %q", l.Name())
	}
}

func TestLessPrefersUnderServed(t *testing.T) {
	l := New(1)
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	a.Service = simtime.Second
	if !l.Less(b, a) || l.Less(a, b) {
		t.Fatal("Less must prefer the under-served thread")
	}
}

func TestEmptyPick(t *testing.T) {
	l := New(1)
	if l.Pick(0, 0) != nil {
		t.Fatal("pick on empty scheduler")
	}
}
