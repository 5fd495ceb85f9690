package experiments

import (
	"cmp"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/machine"
	"sfsched/internal/metrics"
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

// TestFig4SeriesSampleService checks the sampling behind Figures 1 and 4:
// one point per SampleEvery up to and including the horizon, each the task's
// service so far in loops. T1 and T2 never block and start at 0, so the
// three series add up to two full CPUs' worth at every point, and the last
// point is the service the run settles at the horizon.
func TestFig4SeriesSampleService(t *testing.T) {
	p := Fig1Defaults(SFS)
	r := Fig4(p)
	series := []*metrics.Series{r.T1, r.T2, r.T3}
	n := int(simtime.Duration(p.Horizon) / p.SampleEvery)
	for _, s := range series {
		if len(s.X) != n || len(s.Y) != n {
			t.Fatalf("%s: %d/%d samples, want %d", s.Name, len(s.X), len(s.Y), n)
		}
	}
	for i, x := range r.T1.X {
		if want := float64(i+1) * p.SampleEvery.Seconds(); math.Abs(x-want) > 1e-9 {
			t.Fatalf("sample %d at %gs, want %gs", i, x, want)
		}
		got := r.T1.Y[i] + r.T2.Y[i] + r.T3.Y[i]
		if want := workload.Loops(simtime.FromSeconds(2*x), InfLoopCost); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("at %gs the tasks ran %g loops, want two CPUs' %g", x, got, want)
		}
	}
	for i, s := range series {
		if want := workload.Loops(r.Service[i], InfLoopCost); s.Last() != want {
			t.Fatalf("%s: last sample %g loops, settled service %g", s.Name, s.Last(), want)
		}
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
	heur := trace(NewHeuristicSFS(4, sched.DefaultQuantum, 100))
	if !slices.Equal(exact, heur) {
		t.Fatalf("decisions differ:\nexact     %v\nheuristic %v", exact, heur)
	}
}

// TestHeuristicStaysWorkConserving: when every examined candidate is running,
// the pick falls back to the earliest thread that is not.
func TestHeuristicStaysWorkConserving(t *testing.T) {
	s := NewHeuristicSFS(3, sched.DefaultQuantum, 1)
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

// TestHeuristicSurplusFollowsInstallments: the paper's kernel re-sorts a
// thread's surplus whenever it is charged, and the simulator charges the
// running threads in installments when a wakeup finds every CPU busy. After
// that sync each charged thread's stored surplus must be its fresh one; v
// stays put throughout, held at 0 by the hog that waits.
func TestHeuristicSurplusFollowsInstallments(t *testing.T) {
	h := NewHeuristicSFS(2, 10*simtime.Millisecond, 20)
	m := machine.New(machine.Config{CPUs: 2, Scheduler: h, Seed: 1})
	for _, name := range []string{"hog1", "hog2", "hog3"} {
		m.Spawn(machine.SpawnConfig{Name: name, Behavior: workload.Inf()})
	}
	const wake = simtime.Time(5 * simtime.Millisecond) // mid-quantum
	m.Spawn(machine.SpawnConfig{Name: "woken", Behavior: workload.Inf(), At: wake})
	charged := 0
	m.At(wake, func(simtime.Time) { // after the wakeup: events at one instant run in order
		for _, th := range h.Threads() {
			if th.Service == 0 {
				continue
			}
			charged++
			if got, want := h.stored[th], h.FreshSurplus(th); got != want {
				t.Errorf("%v: stored surplus %g after its installment, fresh %g", th, got, want)
			}
		}
	})
	m.Run(wake)
	if charged != 2 {
		t.Fatalf("%d threads charged by the wakeup's sync, want the 2 running", charged)
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

// TestExtremeWeightsServeGMS runs 30 s of SFS on 3 CPUs beside the GMS fluid
// reference with one weight of 1e12 and three light ones. Whatever the light
// weight, GMS gives the heavy thread one CPU and the light ones two thirds of
// one each, and SFS delivers what it delivers for 10:1:1:1: a running Σw that
// rounds the light weights away must move neither.
func TestExtremeWeightsServeGMS(t *testing.T) {
	const horizon = simtime.Time(30 * simtime.Second)
	serve := func(weights []float64) (sim, fluid []float64) {
		m := NewMachine(SFS, 3, 10*simtime.Millisecond, 1)
		f := AttachGMS(m, 3)
		var tasks []*machine.Task
		for _, w := range weights {
			tasks = append(tasks, m.Spawn(machine.SpawnConfig{Weight: w, Behavior: workload.Inf()}))
		}
		m.Run(horizon)
		f.Advance(horizon)
		for _, k := range tasks {
			sim = append(sim, k.Thread().Service.Seconds())
			fluid = append(fluid, f.Service(k.Thread()))
		}
		return sim, fluid
	}
	ref, _ := serve([]float64{10, 1, 1, 1})
	for _, light := range []float64{1e-5, 1e-3} {
		sim, fluid := serve([]float64{1e12, light, light, light})
		for i, want := range []float64{30, 20, 20, 20} {
			if math.Abs(fluid[i]-want) > 1e-6 || math.Abs(sim[i]-ref[i]) > 0.02 {
				t.Fatalf("light %g: SFS serves %v s and GMS %v s; 10:1:1:1 gets %v s from SFS, GMS 30/20/20/20", light, sim, fluid, ref)
			}
		}
	}
}

// TestRenders renders every experiment at a small size. The deterministic
// renders must match testdata/renders.txt byte for byte, so a change that
// moves a figure shows as a diff of that file; Table 1 and Figure 7 time the
// host and are only checked to render. To accept a deliberate change, delete
// the file and run the test: it writes the current renders and fails once.
func TestRenders(t *testing.T) {
	for i, out := range []string{
		Table1(200).Render(),
		Fig7(Fig7Params{Procs: []int{2, 4}, Iters: 200}).Render(),
	} {
		if len(out) == 0 {
			t.Fatalf("timed render %d is empty", i)
		}
	}
	outs := []string{
		Fig4(Fig1Defaults(SFQ)).Render(),
		Fig4(Fig4Defaults(SFS)).Render(),
		Fig5(Fig5Defaults(SFS)).Render(),
		Fig6a(Fig6aDefaults(SFS)).Render(),
	}
	p := Fig3Defaults()
	p.Threads = []int{50, 100}
	p.Ks = []int{1, 2, 5, 20}
	p.Horizon = simtime.Time(2 * simtime.Second)
	outs = append(outs, Fig3(p).Render())
	b := Fig6bDefaults()
	b.Compilations = []int{0, 2}
	b.Horizon = simtime.Time(5 * simtime.Second)
	outs = append(outs, Fig6b(b).Render())
	c := Fig6cDefaults()
	c.Disksims = []int{0, 2}
	c.Horizon = simtime.Time(5 * simtime.Second)
	outs = append(outs, Fig6c(c).Render())
	got := strings.Join(outs, "\n")

	path := filepath.Join("testdata", "renders.txt")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s from the current renders; review it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := "", ""
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d: render moved\n got: %s\nwant: %s", path, i+1, g, w)
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
