package experiments

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/machine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/workload"
	"sfsched/internal/xrand"
)

func TestNewSchedulerKinds(t *testing.T) {
	for _, kind := range Kinds() {
		s, err := NewScheduler(kind, 2, 200*simtime.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if s.NumCPU() != 2 {
			t.Fatalf("%s: NumCPU %d", kind, s.NumCPU())
		}
	}
	if _, err := NewScheduler("bogus", 2, 0); err == nil {
		t.Fatal("unknown kind must error")
	}
}

// TestFig1SFQStarvation asserts Example 1 quantitatively: under plain SFQ
// with 1 ms quanta, T1 receives (almost) no service from T3's arrival at 1 s
// until the catch-up at ~1.9 s.
func TestFig1SFQStarvation(t *testing.T) {
	r := Fig4(Fig1Defaults(SFQ))
	starved := r.T1.Delta(1.05, 1.85)
	running := r.T1.Delta(0.1, 0.9)
	if starved > running*0.02 {
		t.Fatalf("T1 progressed during the starvation window: %.0f loops (vs %.0f while running)",
			starved, running)
	}
	// After catch-up T1 runs again.
	if resumed := r.T1.Delta(1.95, 2.45); resumed <= 0 {
		t.Fatalf("T1 did not resume after catch-up: %.0f", resumed)
	}
}

// TestFig1SFSNoStarvation asserts the same workload is starvation-free under
// SFS.
func TestFig1SFSNoStarvation(t *testing.T) {
	r := Fig4(Fig1Defaults(SFS))
	starved := r.T1.Delta(1.05, 1.85)
	running := r.T1.Delta(0.1, 0.9)
	// With φ = 1:2:1, T1 holds a quarter of the machine: about half its
	// previous full-CPU rate.
	if starved < running*0.3 {
		t.Fatalf("T1 starved under SFS: %.0f loops vs %.0f", starved, running)
	}
}

// TestFig4Shapes asserts the three-phase allocation of Figure 4.
func TestFig4Shapes(t *testing.T) {
	plain := Fig4(Fig4Defaults(SFQ))
	fixed := Fig4(Fig4Defaults(SFQReadjust))
	sfs := Fig4(Fig4Defaults(SFS))

	// (a) Plain SFQ: T1 starves while T3 catches up (15 s .. ~28.5 s).
	if got := plain.T1.Delta(16, 28); got > 0.05*plain.T1.Delta(1, 14) {
		t.Fatalf("plain SFQ: T1 not starved: %.0f loops in window", got)
	}
	// (b) With readjustment: T1 keeps making progress in the same window,
	// at roughly half its phase-1 rate (share 1/4 of 2 CPUs vs full CPU).
	for _, r := range []Fig4Result{fixed, sfs} {
		phase1 := r.T1.Delta(1, 14)  // 13 s at 1 CPU
		phase2 := r.T1.Delta(16, 29) // 13 s at 0.5 CPU
		if phase2 < 0.3*phase1 {
			t.Fatalf("%s: T1 starved with readjustment: %.0f vs %.0f", r.Sched, phase2, phase1)
		}
		// T2's instantaneous weight is 2 in phase 2: its rate must stay
		// ~1 CPU (capped), i.e. equal to phase 1.
		t2p1, t2p2 := r.T2.Delta(1, 14), r.T2.Delta(16, 29)
		if math.Abs(t2p2-t2p1) > 0.1*t2p1 {
			t.Fatalf("%s: T2 rate changed: %.0f vs %.0f", r.Sched, t2p1, t2p2)
		}
		// Phase-2 ratio T1:T2:T3 ≈ 1:2:1.
		d1, d2, d3 := r.T1.Delta(16, 29), r.T2.Delta(16, 29), r.T3.Delta(16, 29)
		if math.Abs(d2/d1-2) > 0.25 || math.Abs(d3/d1-1) > 0.25 {
			t.Fatalf("%s: phase-2 ratios %.2f:%.2f:%.2f, want 1:2:1", r.Sched, d1/d1, d2/d1, d3/d1)
		}
	}
	// (c) After T2 stops at 30 s, T1 and T3 each take a full CPU.
	if d := sfs.T1.Delta(31, 39); d < 0.9*sfs.T1.Delta(1, 9) {
		t.Fatalf("T1 did not recover a full CPU after T2 stopped: %.0f", d)
	}
}

// TestFig5ShortJobs asserts Example 2's misallocation under SFQ and its
// repair under SFS.
func TestFig5ShortJobs(t *testing.T) {
	sfqRes := Fig5(Fig5Defaults(SFQ))
	sfsRes := Fig5(Fig5Defaults(SFS))
	ideal := []float64{4.0 / 9, 4.0 / 9, 1.0 / 9}

	// SFQ: the short stream receives roughly as much as T1 (the paper:
	// "each set of tasks receives approximately an equal share").
	sq := sfqRes.Shares()
	if sq[2] < 0.6*sq[0] {
		t.Fatalf("SFQ short share %.3f not comparable to T1 %.3f", sq[2], sq[0])
	}
	// SFS: substantially closer to the requested 4:4:1.
	ss := sfsRes.Shares()
	errOf := func(sh []float64) float64 {
		var e float64
		for i := range sh {
			e += math.Abs(sh[i] - ideal[i])
		}
		return e
	}
	if errOf(ss) > 0.6*errOf(sq) {
		t.Fatalf("SFS error %.3f not clearly better than SFQ %.3f (shares %v vs %v)",
			errOf(ss), errOf(sq), ss, sq)
	}
	if ss[2] > 0.20 {
		t.Fatalf("SFS short share %.3f too large", ss[2])
	}
	// With fine quanta the granularity floor disappears and SFS converges
	// to the exact 4:4:1 (documented in EXPERIMENTS.md).
	fine := Fig5Defaults(SFS)
	fine.Quantum = 20 * simtime.Millisecond
	fs := Fig5(fine).Shares()
	for i := range ideal {
		if math.Abs(fs[i]-ideal[i]) > 0.02 {
			t.Fatalf("fine-quantum SFS shares %v, want %v", fs, ideal)
		}
	}
}

// TestFig6aProportional asserts the measured dhrystone ratios track the
// requested 1:1, 1:2, 1:4, 1:7.
func TestFig6aProportional(t *testing.T) {
	r := Fig6a(Fig6aDefaults(SFS))
	for _, row := range r.Rows {
		want := row.Requested[1] / row.Requested[0]
		if math.Abs(row.Measured-want) > 0.15*want {
			t.Fatalf("ratio %g:%g measured %.3f, want ~%.2f",
				row.Requested[0], row.Requested[1], row.Measured, want)
		}
	}
}

// TestFig6bIsolation asserts SFS isolates the decoder while time sharing
// does not.
func TestFig6bIsolation(t *testing.T) {
	p := Fig6bDefaults()
	r := Fig6b(p)
	sfs := r.FPS[SFS]
	ts := r.FPS[Timeshare]
	// SFS: flat within 10% of the unloaded rate.
	for i, f := range sfs {
		if f < 0.9*sfs[0] {
			t.Fatalf("SFS fps dropped to %.1f at %d compilations (unloaded %.1f)",
				f, p.Compilations[i], sfs[0])
		}
	}
	// Unloaded rate ~44 fps (full CPU at 22.7 ms/frame).
	if math.Abs(sfs[0]-44) > 2 {
		t.Fatalf("unloaded fps %.1f, want ~44", sfs[0])
	}
	// Time sharing: monotone-ish degradation, clearly below SFS at max
	// load.
	last := len(p.Compilations) - 1
	if ts[last] > 0.6*sfs[last] {
		t.Fatalf("time sharing fps %.1f at max load; expected well below SFS %.1f",
			ts[last], sfs[last])
	}
}

// TestFig6cInteractive asserts both schedulers keep interactive response
// comparable and small as background load grows.
func TestFig6cInteractive(t *testing.T) {
	r := Fig6c(Fig6cDefaults())
	for _, kind := range r.Params.Kinds {
		for i, mean := range r.MeanMS[kind] {
			if mean <= 0 {
				t.Fatalf("%s: no responses recorded at load %d", kind, i)
			}
			if mean > 25 {
				t.Fatalf("%s: mean response %.2fms at %d disksims; interactivity lost",
					kind, mean, r.Params.Disksims[i])
			}
		}
	}
}

// TestFig3HeuristicAccuracy asserts the paper's headline: ~20 candidates per
// queue suffice for >99% accuracy up to 400 runnable threads on 4 CPUs. A k
// that covers the whole run queue examines every thread and cannot miss.
func TestFig3HeuristicAccuracy(t *testing.T) {
	p := Fig3Defaults()
	p.Threads = []int{100, 400}
	p.Ks = []int{1, 5, 20, 400}
	p.Horizon = simtime.Time(5 * simtime.Second)
	r := Fig3(p)
	for _, n := range p.Threads {
		acc := r.Accuracy[n]
		if acc[2] < 99 {
			t.Fatalf("n=%d: accuracy at k=20 is %.2f%%, want >= 99%%", n, acc[2])
		}
		if acc[0] > acc[2] {
			t.Fatalf("n=%d: accuracy not improving with k: %v", n, acc)
		}
		if acc[3] != 100 {
			t.Fatalf("n=%d: accuracy at k=%d >= n is %.2f%%, want 100%%", n, p.Ks[3], acc[3])
		}
	}
}

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w, CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

// TestHeuristicMatchesExactWithLargeK: with k >= n the heuristic examines
// every thread and must agree with the exact kernel decision for decision,
// tie-breaks included.
func TestHeuristicMatchesExactWithLargeK(t *testing.T) {
	trace := func(s sched.Scheduler) []int {
		r := xrand.New(5)
		now := simtime.Time(0)
		for i := 0; i < 30; i++ {
			if err := s.Add(mkThread(i+1, float64(1+r.Intn(20))), now); err != nil {
				t.Fatal(err)
			}
		}
		var ids []int
		for i := 0; i < 1500; i++ {
			th := s.Pick(0, now)
			th.CPU = 0
			now = now.Add(10 * simtime.Millisecond)
			s.Charge(th, 10*simtime.Millisecond, now)
			th.CPU = sched.NoCPU
			ids = append(ids, th.ID)
		}
		return ids
	}
	exact := trace(core.New(4))
	heur := trace(NewHeuristicSFS(4, core.DefaultQuantum, 100))
	if !slices.Equal(exact, heur) {
		t.Fatalf("decisions differ:\nexact     %v\nheuristic %v", exact, heur)
	}
}

// TestHeuristicStaysWorkConserving: when every examined candidate is running,
// the pick falls back to the earliest thread that is not.
func TestHeuristicStaysWorkConserving(t *testing.T) {
	s := NewHeuristicSFS(3, core.DefaultQuantum, 1)
	var threads []*sched.Thread
	for i := 0; i < 10; i++ {
		threads = append(threads, mkThread(i+1, 1))
		if err := s.Add(threads[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	threads[0].CPU = 0 // the head of the start-tag and surplus queues
	threads[9].CPU = 1 // the lightest-first head
	if got := s.Pick(2, 0); got != threads[1] {
		t.Fatalf("picked %v with 8 runnable threads waiting, want %v", got, threads[1])
	}
}

// TestFirstKIsTheSortedPrefix pins the bounded selection standing in for the
// paper's sorted queues: the k least under the order, in order.
func TestFirstKIsTheSortedPrefix(t *testing.T) {
	r := xrand.New(11)
	lighter := func(a, b *sched.Thread) int {
		return cmp.Or(cmp.Compare(a.Weight, b.Weight), cmp.Compare(b.ID, a.ID))
	}
	var ts []*sched.Thread
	for i := 0; i < 50; i++ {
		ts = append(ts, mkThread(i+1, float64(1+r.Intn(3))))
	}
	sorted := slices.SortedFunc(slices.Values(ts), lighter)
	for _, k := range []int{0, 1, 7, 20, 50} {
		if got := firstK(ts, k, lighter); !slices.Equal(got, sorted[:k]) {
			t.Fatalf("k=%d: firstK = %v, the sorted prefix is %v", k, got, sorted[:k])
		}
	}
}

// TestTable1AndFig7 sanity-checks the overhead harness: positive costs, and
// SFS bookkeeping growing with the run-queue length.
func TestTable1AndFig7(t *testing.T) {
	res := Table1(3000)
	for _, row := range res.Rows {
		if row.Note != "" {
			continue
		}
		if row.TS <= 0 || row.SFS <= 0 {
			t.Fatalf("non-positive cost in row %q: %+v", row.Test, row)
		}
	}
	f := Fig7(Fig7Params{Procs: []int{2, 50}, Iters: 5000})
	// Time sharing's schedule() scan is O(n): cost must clearly grow.
	if f.TS[1] <= f.TS[0] {
		t.Fatalf("timeshare switch cost did not grow with processes: %v vs %v", f.TS[0], f.TS[1])
	}
	// SFS's amortized cost is nearly flat (sorted-queue head access with
	// periodic re-sorts), so only assert it does not collapse or blow up -
	// wall-clock growth assertions on it are noise-bound.
	if f.SFS[0] <= 0 || f.SFS[1] <= 0 {
		t.Fatalf("non-positive SFS switch cost: %v, %v", f.SFS[0], f.SFS[1])
	}
	if f.SFS[1] > 100*f.SFS[0] {
		t.Fatalf("SFS switch cost exploded: %v -> %v", f.SFS[0], f.SFS[1])
	}
}

// TestGMSLagBound runs the Figure 4 workload under SFS alongside the GMS
// fluid reference and bounds the worst-case deviation: SFS must stay within
// a few quanta of the idealized allocation.
func TestGMSLagBound(t *testing.T) {
	p := Fig4Defaults(SFS)
	m := NewMachine(p.Kind, p.CPUs, p.Quantum, p.Seed)
	fluid := AttachGMS(m, p.CPUs)
	t1 := m.Spawn(machine.SpawnConfig{Name: "T1", Weight: 1, Behavior: workload.Inf()})
	t2 := m.Spawn(machine.SpawnConfig{Name: "T2", Weight: 10, Behavior: workload.Inf()})
	t3 := m.Spawn(machine.SpawnConfig{Name: "T3", Weight: 1, Behavior: workload.Inf(), At: p.T3Arrival})
	m.Run(p.Horizon)
	fluid.Advance(p.Horizon)
	for _, k := range []*machine.Task{t1, t2, t3} {
		lag := fluid.Lag(k.Thread())
		if math.Abs(lag) > 5*p.Quantum.Seconds() {
			t.Fatalf("%s lags GMS by %.3fs (> 5 quanta)", k.Thread().Name, lag)
		}
	}
}

// TestRenders exercises every Render method (content sanity, not layout).
func TestRenders(t *testing.T) {
	outs := []string{
		Fig4(Fig1Defaults(SFQ)).Render(),
		Fig4(Fig4Defaults(SFS)).Render(),
		Fig5(Fig5Defaults(SFS)).Render(),
		Fig6a(Fig6aDefaults(SFS)).Render(),
		Table1(200).Render(),
		Fig7(Fig7Params{Procs: []int{2, 4}, Iters: 200}).Render(),
	}
	p := Fig3Defaults()
	p.Threads = []int{50}
	p.Ks = []int{1, 20}
	p.Horizon = simtime.Time(simtime.Second)
	outs = append(outs, Fig3(p).Render())
	b := Fig6bDefaults()
	b.Compilations = []int{0, 2}
	b.Horizon = simtime.Time(5 * simtime.Second)
	outs = append(outs, Fig6b(b).Render())
	c := Fig6cDefaults()
	c.Disksims = []int{0, 2}
	c.Horizon = simtime.Time(5 * simtime.Second)
	outs = append(outs, Fig6c(c).Render())
	for i, out := range outs {
		if len(out) == 0 {
			t.Fatalf("render %d is empty", i)
		}
	}
}

// TestAblationNoReadjustmentStarves shows the surplus mechanism alone does
// not fix Example 1: SFS with readjustment disabled starves T1 just like
// plain SFQ, confirming the readjustment algorithm is a necessary component,
// not an optimization.
func TestAblationNoReadjustmentStarves(t *testing.T) {
	r := Fig4(Fig1Defaults(SFSNoAdjust))
	starved := r.T1.Delta(1.05, 1.85)
	running := r.T1.Delta(0.1, 0.9)
	if starved > running*0.05 {
		t.Fatalf("SFS without readjustment did not starve T1: %.0f loops (vs %.0f running)",
			starved, running)
	}
}

// TestStrideAndBVTShareTheDefect verifies the paper's claim that the other
// GPS-based schedulers suffer the same infeasible-weights unfairness
// (§1.2: "stride scheduling, WFQ and BVT also suffer from this drawback").
func TestStrideAndBVTShareTheDefect(t *testing.T) {
	for _, kind := range []Kind{Stride, BVT} {
		r := Fig4(Fig1Defaults(kind))
		starved := r.T1.Delta(1.05, 1.85)
		running := r.T1.Delta(0.1, 0.9)
		if starved > running*0.1 {
			t.Fatalf("%s did not exhibit the infeasible-weights defect: %.0f vs %.0f",
				kind, starved, running)
		}
	}
}

// TestLotteryMultiprocessorBias documents lottery scheduling's own
// multiprocessor defect: while a thread runs, its tickets are invisible to
// drawings on other CPUs, so a heavy thread's delivered share sits
// systematically below its ticket share — the randomized cousin of the
// unfairness the paper demonstrates for deterministic GPS-based schedulers.
// On a uniprocessor the same weights deliver the exact 3:1 (see
// internal/lottery's tests); here the ratio lands visibly short of 3 but
// still well above parity.
func TestLotteryMultiprocessorBias(t *testing.T) {
	m := NewMachine(Lottery, 2, 20*simtime.Millisecond, 9)
	a := m.Spawn(machine.SpawnConfig{Name: "a", Weight: 3, Behavior: workload.Inf()})
	b := m.Spawn(machine.SpawnConfig{Name: "b", Weight: 1, Behavior: workload.Inf()})
	for i := 0; i < 4; i++ {
		m.Spawn(machine.SpawnConfig{Name: "bg", Weight: 1, Behavior: workload.Inf()})
	}
	m.Run(simtime.Time(60 * simtime.Second))
	ratio := a.Thread().Service.Seconds() / b.Thread().Service.Seconds()
	if ratio < 1.5 {
		t.Fatalf("lottery ratio %.3f collapsed to parity", ratio)
	}
	if ratio > 2.8 {
		t.Fatalf("lottery ratio %.3f unexpectedly reached the ticket ratio; the exclusion bias should depress it", ratio)
	}
}
