package phi

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"sfsched/internal/readjust"
	"sfsched/internal/sched"
	"sfsched/internal/xrand"
)

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w, CPU: sched.NoCPU, LastCPU: sched.NoCPU}
}

func TestTrackerPaperExample(t *testing.T) {
	k := NewTracker(2, true)
	t1 := mkThread(1, 1)
	t2 := mkThread(2, 10)
	k.Add(t1)
	k.Add(t2)
	if t1.Phi != 1 || t2.Phi != 1 {
		t.Fatalf("φ = %g, %g; want 1, 1", t1.Phi, t2.Phi)
	}
	// A third thread arrives: 1:10:1 readjusts to 1:2:1 (Figure 4).
	t3 := mkThread(3, 1)
	k.Add(t3)
	if t1.Phi != 1 || t2.Phi != 2 || t3.Phi != 1 {
		t.Fatalf("φ = %g, %g, %g; want 1, 2, 1", t1.Phi, t2.Phi, t3.Phi)
	}
	// The light thread departs again: back to 1:1.
	k.Remove(t3)
	if t1.Phi != 1 || t2.Phi != 1 {
		t.Fatalf("after remove: φ = %g, %g; want 1, 1", t1.Phi, t2.Phi)
	}
	// The heavy thread departs: t1 keeps its own weight.
	k.Remove(t2)
	if t2.Phi != t2.Weight {
		t.Fatalf("departed thread's φ not reset: %g", t2.Phi)
	}
	if t1.Phi != 1 {
		t.Fatalf("t1 φ = %g", t1.Phi)
	}
}

func TestTrackerDisabled(t *testing.T) {
	k := NewTracker(2, false)
	t1 := mkThread(1, 1)
	t2 := mkThread(2, 10)
	k.Add(t1)
	if changed := k.Add(t2); changed {
		t.Fatal("disabled tracker reported a change")
	}
	if t2.Phi != 10 {
		t.Fatalf("disabled tracker modified φ: %g", t2.Phi)
	}
	if k.Enabled() {
		t.Fatal("Enabled() lied")
	}
}

func TestTrackerUpdateWeight(t *testing.T) {
	k := NewTracker(2, true)
	t1 := mkThread(1, 1)
	t2 := mkThread(2, 1)
	k.Add(t1)
	k.Add(t2)
	k.UpdateWeight(t2, 10)
	if t2.Weight != 10 {
		t.Fatalf("weight not updated: %g", t2.Weight)
	}
	if t2.Phi != 1 {
		t.Fatalf("φ after infeasible update = %g, want 1", t2.Phi)
	}
	if math.Abs(k.Sum()-11) > 1e-12 {
		t.Fatalf("Sum = %g, want 11", k.Sum())
	}
}

func TestTrackerSumMaintained(t *testing.T) {
	k := NewTracker(4, true)
	threads := []*sched.Thread{mkThread(1, 3), mkThread(2, 5), mkThread(3, 7)}
	for _, th := range threads {
		k.Add(th)
	}
	if k.Sum() != 15 {
		t.Fatalf("Sum = %g", k.Sum())
	}
	k.Remove(threads[1])
	if k.Sum() != 10 {
		t.Fatalf("Sum after remove = %g", k.Sum())
	}
	if k.Len() != 2 {
		t.Fatalf("Len = %d", k.Len())
	}
}

func TestTrackerMatchesReadjustPackage(t *testing.T) {
	// The incremental tracker must agree with the batch algorithm in
	// internal/readjust on random runnable sets under churn.
	r := xrand.New(42)
	for trial := 0; trial < 200; trial++ {
		p := 2 + r.Intn(6)
		k := NewTracker(p, true)
		var live []*sched.Thread
		id := 0
		for step := 0; step < 30; step++ {
			if len(live) == 0 || r.Float64() < 0.6 {
				id++
				th := mkThread(id, 1+r.Float64()*100)
				live = append(live, th)
				k.Add(th)
			} else {
				i := r.Intn(len(live))
				k.Remove(live[i])
				live = append(live[:i], live[i+1:]...)
			}
			// Compare against the batch computation.
			weights := make([]float64, len(live))
			for i, th := range live {
				weights[i] = th.Weight
			}
			want := readjust.Weights(weights, p)
			for i, th := range live {
				if math.Abs(th.Phi-want[i]) > 1e-9*(1+want[i]) {
					t.Fatalf("trial %d step %d: thread %d φ=%g, batch=%g (weights=%v p=%d)",
						trial, step, th.ID, th.Phi, want[i], weights, p)
				}
			}
			if err := k.Validate(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

func TestTrackerPhiSum(t *testing.T) {
	k := NewTracker(2, true)
	k.Add(mkThread(1, 1))
	k.Add(mkThread(2, 10))
	if got := k.PhiSum(); got != 2 {
		t.Fatalf("PhiSum = %g, want 2", got)
	}
}

func TestTrackerEachReverse(t *testing.T) {
	k := NewTracker(2, true)
	k.Add(mkThread(1, 5))
	k.Add(mkThread(2, 1))
	k.Add(mkThread(3, 3))
	var got []float64
	k.EachReverse(func(th *sched.Thread) bool {
		got = append(got, th.Weight)
		return true
	})
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("EachReverse not ascending: %v", got)
	}
}

func TestTrackerPassesCount(t *testing.T) {
	k := NewTracker(2, true)
	k.Add(mkThread(1, 1))
	k.Add(mkThread(2, 1))
	if k.Passes() != 0 {
		t.Fatalf("feasible adds counted as passes: %d", k.Passes())
	}
	k.Add(mkThread(3, 100))
	if k.Passes() == 0 {
		t.Fatal("infeasible add did not count as a pass")
	}
}

func TestTrackerFeasibleOutputQuick(t *testing.T) {
	// testing/quick property: after any add sequence, the tracked φ
	// assignment is feasible (no thread's φ share exceeds 1/cap of the
	// φ total, within float tolerance).
	f := func(raw []uint8, pRaw uint8) bool {
		p := int(pRaw%7) + 2
		k := NewTracker(p, true)
		for i, x := range raw {
			k.Add(mkThread(i+1, float64(x%200)+1))
		}
		n := k.Len()
		if n == 0 {
			return true
		}
		total := k.PhiSum()
		ok := true
		k.EachReverse(func(th *sched.Thread) bool {
			if n > p && th.Phi*float64(p) > total*(1+1e-9) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerMaxPhi checks that MaxPhi is the largest φ assigned, not the
// largest weight requested: with one infeasible thread, with p−1 of them,
// with no more threads than processors, with readjustment off, and as an
// upper bound between a deferred add and its pass.
func TestTrackerMaxPhi(t *testing.T) {
	maxPhi := func(ts []*sched.Thread) float64 {
		var m float64
		for _, th := range ts {
			m = max(m, th.Phi)
		}
		return m
	}
	for _, c := range []struct {
		name    string
		p       int
		weights []float64
		capped  int
	}{
		{"feasible", 4, []float64{3, 2, 2, 1, 1, 1, 1, 1}, 0},
		{"one-infeasible", 4, []float64{100, 3, 2, 2, 1, 1, 1}, 1},
		{"p-1-infeasible", 4, []float64{400, 300, 200, 3, 2, 1, 1}, 3},
		{"n-below-p", 4, []float64{9, 5, 2}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := NewTracker(c.p, true)
			if k.MaxPhi() != 0 {
				t.Fatalf("empty tracker: MaxPhi %g", k.MaxPhi())
			}
			var ts []*sched.Thread
			for i, w := range c.weights {
				ts = append(ts, mkThread(i+1, w))
				k.Add(ts[i])
				if got, want := k.MaxPhi(), maxPhi(ts); got != want {
					t.Fatalf("after add %d: MaxPhi %g, largest φ %g", i+1, got, want)
				}
			}
			capped := 0
			for _, th := range ts {
				if th.Phi != th.Weight {
					capped++
				}
			}
			if capped != c.capped {
				t.Fatalf("%d capped threads, the case wants %d", capped, c.capped)
			}
			if c.capped > 0 && k.MaxPhi() >= c.weights[0] {
				t.Fatalf("MaxPhi %g still the heaviest requested weight", k.MaxPhi())
			}
			late := mkThread(99, 50)
			k.AddDeferred(late)
			if got := k.MaxPhi(); got < maxPhi(append(ts, late)) {
				t.Fatalf("before the deferred pass: MaxPhi %g below a tracked φ", got)
			}
			k.Readjust()
			k.Remove(late)
			for i := len(ts) - 1; i >= 0; i-- {
				if got, want := k.MaxPhi(), maxPhi(ts[:i+1]); got != want {
					t.Fatalf("with %d left: MaxPhi %g, largest φ %g", i+1, got, want)
				}
				k.Remove(ts[i])
			}
		})
	}
	off := NewTracker(2, false)
	off.Add(mkThread(1, 1))
	off.Add(mkThread(2, 10))
	if off.MaxPhi() != 10 {
		t.Fatalf("readjustment off: MaxPhi %g, want the heaviest weight", off.MaxPhi())
	}
}
