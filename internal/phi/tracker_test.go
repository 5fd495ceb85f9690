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

func TestTrackerPhiSum(t *testing.T) {
	k := NewTracker(2, true)
	ts := []*sched.Thread{mkThread(1, 1), mkThread(2, 10)}
	for _, th := range ts {
		k.Add(th)
	}
	if got := ts[0].Phi + ts[1].Phi; got != 2 {
		t.Fatalf("Σφ = %g, want 2", got)
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
		ts := make([]*sched.Thread, len(raw))
		var total float64
		for i, x := range raw {
			ts[i] = mkThread(i+1, float64(x%200)+1)
			k.Add(ts[i])
		}
		for _, th := range ts {
			total += th.Phi
		}
		for _, th := range ts {
			if len(ts) > p && th.Phi*float64(p) > total*(1+1e-9) {
				return false
			}
		}
		return true
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

// TestTrackerSumResetsWhenIdle: Σw is kept by += and −= alone, so churn with
// non-integer weights leaves a residue; an idle period must not carry it into
// the next feasibility test.
func TestTrackerSumResetsWhenIdle(t *testing.T) {
	k := NewTracker(4, true)
	r := xrand.New(7)
	ws := []float64{0.1, 0.2, 0.7}
	var live []*sched.Thread
	for i := 0; i < 100_000; i++ {
		if len(live) > 0 && (len(live) > 40 || r.Intn(2) == 0) {
			j := r.Intn(len(live))
			k.Remove(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			live = append(live, mkThread(i+1, ws[r.Intn(len(ws))]))
			k.Add(live[len(live)-1])
		}
	}
	for _, th := range live {
		k.Remove(th)
	}
	if k.Sum() != 0 || k.Len() != 0 {
		t.Fatalf("idle tracker: Sum %g, Len %d", k.Sum(), k.Len())
	}
	th := mkThread(1_000_000, 0.3)
	k.Add(th)
	if th.Phi != 0.3 || k.Sum() != 0.3 {
		t.Fatalf("first thread after idling: φ %g, Sum %g, want 0.3", th.Phi, k.Sum())
	}
}

// TestTrackerUpdateWeightUntracked: a weight change for a thread the tracker
// does not hold reports false and touches neither Σw nor the thread.
func TestTrackerUpdateWeightUntracked(t *testing.T) {
	k := NewTracker(2, true)
	fired := 0
	k.OnPhiChange(func(*sched.Thread) { fired++ })
	k.Add(mkThread(1, 2))
	gone := mkThread(2, 3)
	k.Add(gone)
	k.Remove(gone)
	fired = 0
	for _, th := range []*sched.Thread{gone, mkThread(3, 5)} {
		w := th.Weight
		if k.UpdateWeight(th, 50) {
			t.Fatalf("UpdateWeight(%v) on an untracked thread reported a change", th)
		}
		if th.Weight != w || th.Phi != w || k.Sum() != 2 || k.Len() != 1 || fired != 0 {
			t.Fatalf("untracked %v: weight %g φ %g, Sum %g Len %d, %d hook firings", th, th.Weight, th.Phi, k.Sum(), k.Len(), fired)
		}
	}
}

// oracle is Figure 2 from scratch: sort the live set by (weight desc, ID asc)
// and run the prefix loop as Readjust writes it. With weights that sum exactly
// in any order its φ values are the tracker's to the bit.
func oracle(live []*sched.Thread, p int) map[*sched.Thread]float64 {
	ts := append([]*sched.Thread(nil), live...)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Weight != ts[j].Weight {
			return ts[i].Weight > ts[j].Weight
		}
		return ts[i].ID < ts[j].ID
	})
	phi := make(map[*sched.Thread]float64, len(ts))
	var sum float64
	for _, th := range ts {
		phi[th] = th.Weight
		sum += th.Weight
	}
	if len(ts) <= p {
		for _, th := range ts {
			phi[th] = ts[len(ts)-1].Weight
		}
		return phi
	}
	capacity, ncap := float64(p), 0
	for i, th := range ts[:p] {
		if rem := capacity - float64(i); !(rem > 1 && th.Weight*rem > sum) {
			break
		}
		ncap++
		sum -= th.Weight
	}
	for j := ncap - 1; j >= 0; j-- {
		phi[ts[j]] = sum / (capacity - float64(j) - 1)
		sum += phi[ts[j]]
	}
	return phi
}

// opsWeights are the weights FuzzTrackerOps draws from: small integers with
// many ties, and a few large enough to be infeasible next to them.
var opsWeights = [16]float64{1, 1, 1, 2, 2, 3, 3, 5, 9, 40, 100, 200, 300, 400, 2, 1}

// trackerWorld drives a tracker through one operation at a time and checks
// everything the package promises after each.
type trackerWorld struct {
	t       *testing.T
	p       int
	k       *Tracker
	live    []*sched.Thread
	gone    []*sched.Thread
	fired   map[*sched.Thread]int
	nextID  int
	stepNum int
}

func newTrackerWorld(t *testing.T, p int) *trackerWorld {
	w := &trackerWorld{t: t, p: p, k: NewTracker(p, true), fired: map[*sched.Thread]int{}}
	w.k.OnPhiChange(func(th *sched.Thread) { w.fired[th]++ })
	return w
}

func (w *trackerWorld) mk(weight float64) *sched.Thread {
	w.nextID++
	return mkThread(w.nextID, weight)
}

// step runs op, which passes forced — the threads the operation's contract
// fires the hook for unconditionally, their φ already at the weight they
// start the pass from — and then checks the pass: φ against the oracle, one
// hook firing per changed φ, Passes, MaxPhi, Σw, Len and the queue.
func (w *trackerWorld) step(name string, live []*sched.Thread, op func() (forced []*sched.Thread)) {
	w.t.Helper()
	w.stepNum++
	before := make(map[*sched.Thread]float64, len(w.live))
	for _, th := range w.live {
		before[th] = th.Phi
	}
	clear(w.fired)
	passes := w.k.Passes()
	forced := op()
	w.live = live
	for _, th := range forced {
		before[th] = th.Weight
		w.fired[th]--
	}
	want := oracle(w.live, w.p)
	var sum, maxPhi float64
	changed := false
	for _, th := range w.live {
		if th.Phi != want[th] {
			w.t.Fatalf("step %d %s: %v has φ %v, Figure 2 gives %v", w.stepNum, name, th, th.Phi, want[th])
		}
		wantFired := 0
		if th.Phi != before[th] {
			wantFired, changed = 1, true
		}
		if w.fired[th] != wantFired {
			w.t.Fatalf("step %d %s: hook fired %d times for %v (φ %v → %v), want %d",
				w.stepNum, name, w.fired[th], th, before[th], th.Phi, wantFired)
		}
		delete(w.fired, th)
		sum += th.Weight
		maxPhi = max(maxPhi, th.Phi)
	}
	for _, th := range w.gone {
		if th.Phi != th.Weight {
			w.t.Fatalf("step %d %s: removed %v keeps φ %v", w.stepNum, name, th, th.Phi)
		}
		wantFired := 0
		if was, justLeft := before[th]; justLeft && was != th.Weight {
			wantFired = 1
		}
		if w.fired[th] != wantFired {
			w.t.Fatalf("step %d %s: hook fired %d times for untracked %v, want %d", w.stepNum, name, w.fired[th], th, wantFired)
		}
	}
	if got := w.k.Passes() - passes; got != 0 && got != 1 || (got == 1) != changed {
		w.t.Fatalf("step %d %s: Passes advanced by %d, some φ changed: %v", w.stepNum, name, got, changed)
	}
	if w.k.MaxPhi() != maxPhi {
		w.t.Fatalf("step %d %s: MaxPhi %v, largest φ %v", w.stepNum, name, w.k.MaxPhi(), maxPhi)
	}
	if w.k.Sum() != sum || w.k.Len() != len(w.live) {
		w.t.Fatalf("step %d %s: Sum %v Len %d, want %v %d", w.stepNum, name, w.k.Sum(), w.k.Len(), sum, len(w.live))
	}
	if err := w.k.Validate(); err != nil {
		w.t.Fatalf("step %d %s: %v", w.stepNum, name, err)
	}
}

func (w *trackerWorld) add(weights ...float64) {
	w.t.Helper()
	ts := make([]*sched.Thread, len(weights))
	for i, wt := range weights {
		ts[i] = w.mk(wt)
	}
	w.step("add", append(w.live, ts...), func() []*sched.Thread {
		if len(ts) == 1 {
			w.k.Add(ts[0])
			return ts
		}
		for _, th := range ts {
			w.k.AddDeferred(th)
			if w.k.MaxPhi() < th.Phi {
				w.t.Fatalf("before the deferred pass: MaxPhi %v below %v's φ", w.k.MaxPhi(), th)
			}
		}
		w.k.Readjust()
		return ts
	})
}

func (w *trackerWorld) remove(i int) {
	w.t.Helper()
	th := w.live[i]
	w.gone = append(w.gone, th)
	rest := append(append([]*sched.Thread(nil), w.live[:i]...), w.live[i+1:]...)
	w.step("remove", rest, func() []*sched.Thread {
		if !w.k.Remove(th) && th.Phi != th.Weight {
			w.t.Fatalf("Remove(%v) reported no change", th)
		}
		return nil
	})
}

func (w *trackerWorld) setWeight(i int, weight float64) {
	w.t.Helper()
	th := w.live[i]
	w.step("setweight", w.live, func() []*sched.Thread {
		if !w.k.UpdateWeight(th, weight) {
			w.t.Fatalf("UpdateWeight(%v) reported false for a tracked thread", th)
		}
		return []*sched.Thread{th}
	})
}

// run decodes data into operations: data[0] picks p in 1..8, then (op, arg)
// pairs add one thread, admit a batch of 1–3 behind one pass, remove one or
// change one's weight.
func (w *trackerWorld) run(ops []byte) {
	w.t.Helper()
	for i := 0; i+1 < len(ops) && i < 800; i += 2 {
		op, arg := ops[i]%4, int(ops[i+1])
		switch {
		case op == 0 && len(w.live) < 64:
			w.add(opsWeights[arg&15])
		case op == 1 && len(w.live) < 64:
			batch := make([]float64, 1+(arg>>4)%3)
			for j := range batch {
				batch[j] = opsWeights[(arg+j)&15]
			}
			w.add(batch...)
		case op == 2 && len(w.live) > 0:
			w.remove(arg % len(w.live))
		case op == 3 && len(w.live) > 0:
			w.setWeight((arg>>4)%len(w.live), opsWeights[arg&15])
		}
	}
}

// FuzzTrackerOps is the bit-exact differential for the tracker: any sequence
// of arrivals, batches, departures and weight changes, with n crossing p in
// both directions, leaves every φ where Figure 2 from scratch puts it and
// fires the hook exactly once per φ that changed.
func FuzzTrackerOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip("need p and one operation")
		}
		newTrackerWorld(t, 1+int(data[0]%8)).run(data[1:])
	})
}

// TestTrackerMatchesOracle runs the same checks over long random churn, and
// holds the oracle itself against the batch algorithm in internal/readjust.
func TestTrackerMatchesOracle(t *testing.T) {
	r := xrand.New(42)
	for trial := 0; trial < 200; trial++ {
		p := 1 + r.Intn(8)
		w := newTrackerWorld(t, p)
		ops := make([]byte, 120)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		w.run(ops)
		weights := make([]float64, len(w.live))
		for i, th := range w.live {
			weights[i] = th.Weight
		}
		for i, want := range readjust.Weights(weights, p) {
			if got := w.live[i].Phi; math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d: %v has φ %g, readjust.Weights gives %g (weights %v, p %d)", trial, w.live[i], got, want, weights, p)
			}
		}
	}
}

// TestTrackerChurnAllocs: a block and a wakeup next to 10 000 tracked threads,
// one of them capped, allocate nothing.
func TestTrackerChurnAllocs(t *testing.T) {
	k := NewTracker(4, true)
	k.OnPhiChange(func(*sched.Thread) {})
	hog := mkThread(0, 1e6)
	k.Add(hog)
	var ts []*sched.Thread
	for i := 1; i < 10_000; i++ {
		ts = append(ts, mkThread(i, float64(1+i%7)))
		k.Add(ts[len(ts)-1])
	}
	if hog.Phi == hog.Weight {
		t.Fatal("the hog is not capped")
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		th := ts[i%len(ts)]
		i += 13
		k.Remove(th)
		k.Add(th)
	}); n != 0 {
		t.Fatalf("Remove + Add allocates %v times", n)
	}
}
