package core_test

// Golden-trace differential tests: the lazily-evaluated exact scheduler must
// produce decisions bit-identical to the paper's eager algorithm — recompute
// every surplus against the current virtual time at every scheduling
// instance and pick the minimum. The oracle below implements that eager
// algorithm from scratch (no shared queue machinery, no stored surpluses),
// using the same floating-point expressions, and the tests
// drive oracle and scheduler through identical scripted workloads comparing
// the full pick sequence. The oracle takes its φ rule as a parameter, so the
// one kernel is checked under both of its φ sources: Figure 2 (core.New) and
// hierarchical water-filling (hier.New, which is why this file sits in the
// external test package — hier imports core).

import (
	"fmt"
	"slices"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/hier"
	"sfsched/internal/readjust"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

// goldenSched is the operation surface the differential driver needs;
// *core.SFS, *hier.Hier and *oracle implement it.
type goldenSched interface {
	Add(*sched.Thread, simtime.Time) error
	Remove(*sched.Thread, simtime.Time) error
	Charge(*sched.Thread, simtime.Duration, simtime.Time)
	SetWeight(*sched.Thread, float64, simtime.Time) error
	Pick(int, simtime.Time) *sched.Thread
}

// phiRule is where the oracle's φ values come from: the part of
// core.PhiSource an eager scheduler needs.
type phiRule interface {
	Add(*sched.Thread) bool
	Remove(*sched.Thread) bool
	UpdateWeight(*sched.Thread, float64) bool
}

// oracle is the eager reference implementation of SFS: a flat slice of runnable threads, surpluses recomputed from scratch on demand.
// For flat SFS its rule is a readjust.Tracker of its own, so that readjusted φ
// values are arithmetic-identical to the scheduler's; it mirrors the seed's
// tag update expressions exactly.
type oracle struct {
	weights    phiRule
	threads    []*sched.Thread
	v          float64
	lastFinish float64
}

func newOracle(rule phiRule) *oracle { return &oracle{weights: rule} }

func (o *oracle) recomputeV() {
	if len(o.threads) == 0 {
		o.v = o.lastFinish
		return
	}
	best := o.threads[0]
	for _, t := range o.threads[1:] {
		if t.Start < best.Start || (t.Start == best.Start && t.ID < best.ID) {
			best = t
		}
	}
	o.v = best.Start
}

func (o *oracle) Add(t *sched.Thread, now simtime.Time) error {
	if t.Finish > o.v {
		t.Start = t.Finish
	} else {
		t.Start = o.v
	}
	o.weights.Add(t)
	o.threads = append(o.threads, t)
	o.recomputeV()
	return nil
}

func (o *oracle) Remove(t *sched.Thread, now simtime.Time) error {
	for i, x := range o.threads {
		if x == t {
			o.threads = append(o.threads[:i], o.threads[i+1:]...)
			o.weights.Remove(t)
			o.recomputeV()
			return nil
		}
	}
	return fmt.Errorf("oracle: %v not managed", t)
}

func (o *oracle) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	t.Service += ran
	t.Finish = t.Start + ran.Seconds()/t.Phi
	t.Start = t.Finish
	o.lastFinish = t.Finish
	o.recomputeV()
}

func (o *oracle) SetWeight(t *sched.Thread, w float64, now simtime.Time) error {
	for _, x := range o.threads {
		if x == t {
			o.weights.UpdateWeight(t, w)
			return nil
		}
	}
	t.Weight = w
	t.Phi = w
	return nil
}

// Pick scans every runnable thread and returns the non-running one that is
// minimal under (surplus asc, weight desc, ID asc) — the surplus queue's
// order.
func (o *oracle) Pick(cpu int, now simtime.Time) *sched.Thread {
	better := func(fresh float64, t *sched.Thread, bestS float64, best *sched.Thread) bool {
		if best == nil || fresh != bestS {
			return best == nil || fresh < bestS
		}
		if t.Weight != best.Weight {
			return t.Weight > best.Weight
		}
		return t.ID < best.ID
	}
	var best *sched.Thread
	var bestS float64
	for _, t := range o.threads {
		if t.Running() {
			continue
		}
		if f := t.Phi * (t.Start - o.v); better(f, t, bestS, best) {
			best, bestS = t, f
		}
	}
	return best
}

// goldenWorld drives a scheduler and an oracle through one scripted
// workload, comparing every pick. Threads exist in mirrored pairs (same ID
// and weight) so that tags never leak between the two implementations.
type goldenWorld struct {
	t      *testing.T
	name   string
	sut    goldenSched
	ora    goldenSched
	sutT   map[int]*sched.Thread
	oraT   map[int]*sched.Thread
	ids    []int // runnable, non-running thread IDs
	run    map[int]int
	nextID int
	now    simtime.Time
	step   int
	// assign, when set, sees every new mirrored pair before its first add
	// (the hierarchical world routes both threads to the same class).
	assign func(id int, sut, ora *sched.Thread)
	// check, when set, validates the scheduler under test after every
	// operation.
	check func() error
}

func (w *goldenWorld) verify(op string) {
	if w.check == nil {
		return
	}
	if err := w.check(); err != nil {
		w.t.Fatalf("%s step %d after %s: %v", w.name, w.step, op, err)
	}
}

func newGoldenWorld(t *testing.T, name string, sut, ora goldenSched) *goldenWorld {
	return &goldenWorld{
		t: t, name: name, sut: sut, ora: ora,
		sutT: map[int]*sched.Thread{}, oraT: map[int]*sched.Thread{},
		run: map[int]int{},
	}
}

func (w *goldenWorld) mk(weight float64) int {
	w.nextID++
	id := w.nextID
	w.sutT[id] = mkThread(id, weight)
	w.oraT[id] = mkThread(id, weight)
	if w.assign != nil {
		w.assign(id, w.sutT[id], w.oraT[id])
	}
	return id
}

func (w *goldenWorld) add(id int) {
	if err := w.sut.Add(w.sutT[id], w.now); err != nil {
		w.t.Fatalf("%s step %d: sut add: %v", w.name, w.step, err)
	}
	if err := w.ora.Add(w.oraT[id], w.now); err != nil {
		w.t.Fatalf("%s step %d: oracle add: %v", w.name, w.step, err)
	}
	w.ids = append(w.ids, id)
	w.verify("add")
}

func (w *goldenWorld) remove(id int) {
	w.sutT[id].State = sched.Blocked
	w.oraT[id].State = sched.Blocked
	if err := w.sut.Remove(w.sutT[id], w.now); err != nil {
		w.t.Fatalf("%s step %d: sut remove: %v", w.name, w.step, err)
	}
	if err := w.ora.Remove(w.oraT[id], w.now); err != nil {
		w.t.Fatalf("%s step %d: oracle remove: %v", w.name, w.step, err)
	}
	for i, x := range w.ids {
		if x == id {
			w.ids = append(w.ids[:i], w.ids[i+1:]...)
			break
		}
	}
	w.sutT[id].State = sched.Runnable
	w.oraT[id].State = sched.Runnable
	w.verify("remove")
}

func (w *goldenWorld) setWeight(id int, wt float64) {
	if err := w.sut.SetWeight(w.sutT[id], wt, w.now); err != nil {
		w.t.Fatalf("%s step %d: sut setweight: %v", w.name, w.step, err)
	}
	if err := w.ora.SetWeight(w.oraT[id], wt, w.now); err != nil {
		w.t.Fatalf("%s step %d: oracle setweight: %v", w.name, w.step, err)
	}
	w.verify("setweight")
}

// pick dispatches on cpu and cross-checks the decision. It returns the
// picked ID (0 when both sides are idle).
func (w *goldenWorld) pick(cpu int) int {
	st := w.sut.Pick(cpu, w.now)
	ot := w.ora.Pick(cpu, w.now)
	switch {
	case st == nil && ot == nil:
		return 0
	case st == nil || ot == nil:
		w.t.Fatalf("%s step %d cpu %d: sut=%v oracle=%v", w.name, w.step, cpu, st, ot)
	case st.ID != ot.ID:
		w.t.Fatalf("%s step %d cpu %d: traces diverge: sut picked %d, oracle picked %d",
			w.name, w.step, cpu, st.ID, ot.ID)
	}
	st.CPU = cpu
	ot.CPU = cpu
	w.run[st.ID] = cpu
	for i, x := range w.ids {
		if x == st.ID {
			w.ids = append(w.ids[:i], w.ids[i+1:]...)
			break
		}
	}
	w.verify("pick")
	return st.ID
}

// charge ends id's quantum of length q on both sides.
func (w *goldenWorld) charge(id int, q simtime.Duration) {
	cpu := w.run[id]
	delete(w.run, id)
	st, ot := w.sutT[id], w.oraT[id]
	w.now = w.now.Add(q)
	st.CPU, ot.CPU = sched.NoCPU, sched.NoCPU
	st.LastCPU, ot.LastCPU = cpu, cpu
	w.sut.Charge(st, q, w.now)
	w.ora.Charge(ot, q, w.now)
	w.ids = append(w.ids, id)
	w.verify("charge")
}

// goldenCase is one recorded workload of the differential suite.
type goldenCase struct {
	name   string
	cpus   int
	script func(w *goldenWorld, r *xrand.Rand)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"uniprocessor", 1, func(w *goldenWorld, r *xrand.Rand) {
			// The §2.3 reduction workload: mixed weights, variable quanta.
			for i := 0; i < 6; i++ {
				w.add(w.mk(float64(1 + r.Intn(20))))
			}
			for w.step = 0; w.step < 4000; w.step++ {
				id := w.pick(0)
				w.charge(id, simtime.Duration(1+r.Intn(50))*simtime.Millisecond)
			}
		}},
		{"smp4-mixed-weights", 4, func(w *goldenWorld, r *xrand.Rand) {
			// 40 threads, several infeasible weights, staggered quanta so
			// CPUs drift out of phase.
			for i := 0; i < 40; i++ {
				wt := float64(1 + r.Intn(15))
				if i%13 == 0 {
					wt = 200 // infeasible: exercises readjustment
				}
				w.add(w.mk(wt))
			}
			var running [4]int
			for cpu := 0; cpu < 4; cpu++ {
				running[cpu] = w.pick(cpu)
			}
			for w.step = 0; w.step < 6000; w.step++ {
				cpu := w.step % 4
				w.charge(running[cpu], simtime.Duration(1+r.Intn(20))*simtime.Millisecond)
				running[cpu] = w.pick(cpu)
			}
		}},
		{"churn-heavy", 4, func(w *goldenWorld, r *xrand.Rand) {
			for i := 0; i < 30; i++ {
				w.add(w.mk(float64(1 + r.Intn(30))))
			}
			for w.step = 0; w.step < 5000; w.step++ {
				switch op := r.Intn(10); {
				case op < 2: // arrival
					w.add(w.mk(float64(1 + r.Intn(30))))
				case op < 4 && len(w.ids) > 1: // block + later wake
					w.remove(w.ids[r.Intn(len(w.ids))])
				case op < 5 && len(w.ids) > 0: // setweight
					w.setWeight(w.ids[r.Intn(len(w.ids))], float64(1+r.Intn(30)))
				default: // dispatch round
					if id := w.pick(r.Intn(4)); id != 0 {
						w.charge(id, simtime.Duration(1+r.Intn(20))*simtime.Millisecond)
					}
				}
			}
		}},
		{"smp4-deep-queue", 4, func(w *goldenWorld, r *xrand.Rand) {
			// 1200 runnable threads: surplus gaps shrink to the regime
			// where the drift-bounded scan cutoff must stay conservative.
			for i := 0; i < 1200; i++ {
				w.add(w.mk(float64(1 + r.Intn(5))))
			}
			var running [4]int
			for cpu := 0; cpu < 4; cpu++ {
				running[cpu] = w.pick(cpu)
			}
			for w.step = 0; w.step < 3000; w.step++ {
				cpu := w.step % 4
				w.charge(running[cpu], simtime.Duration(1+r.Intn(10))*simtime.Millisecond)
				running[cpu] = w.pick(cpu)
			}
		}},
		{"infeasible-churn", 4, func(w *goldenWorld, r *xrand.Rand) {
			// One thread holding over half the weight beside a churning
			// crowd: it is capped, so its φ changes with every arrival,
			// departure and weight change — a φ-class is created and
			// emptied per operation — and a second heavy thread drifts in
			// and out of feasibility with the total.
			w.add(w.mk(400))
			w.add(w.mk(60))
			for i := 0; i < 24; i++ {
				w.add(w.mk(float64(1 + r.Intn(6))))
			}
			var parked []int
			for w.step = 0; w.step < 6000; w.step++ {
				switch op := r.Intn(10); {
				case op < 2 && len(w.ids) > 4: // block
					id := w.ids[r.Intn(len(w.ids))]
					w.remove(id)
					parked = append(parked, id)
				case op < 4 && len(parked) > 0: // wake
					i := r.Intn(len(parked))
					w.add(parked[i])
					parked = append(parked[:i], parked[i+1:]...)
				case op < 5 && len(w.ids) > 0:
					w.setWeight(w.ids[r.Intn(len(w.ids))], float64(1+r.Intn(6)))
				default:
					if id := w.pick(r.Intn(4)); id != 0 {
						w.charge(id, simtime.Duration(1+r.Intn(20))*simtime.Millisecond)
					}
				}
			}
		}},
		{"crowd-three-weights", 4, func(w *goldenWorld, r *xrand.Rand) {
			// 1200 threads admitted at one virtual time in three φ-classes,
			// equal quanta: whole classes share a start tag, round after
			// round, and every class ties with every other at the start.
			for i := 0; i < 1200; i++ {
				w.add(w.mk(float64(1 + i%3)))
			}
			crowdRounds(w, r, 4, 3000, false)
		}},
		{"crowd-distinct", 4, func(w *goldenWorld, r *xrand.Rand) {
			// The degenerate shape: as many φ-classes as threads, all tied
			// at zero surplus until the ramp-up ends.
			for i := 0; i < 1000; i++ {
				w.add(w.mk(1 + float64(i)/64 + r.Float64()/128))
			}
			crowdRounds(w, r, 4, 3000, true)
		}},
	}
}

// crowdRounds keeps cpus processors busy for steps quanta of 10 ms — equal
// quanta keep equal tags equal — or, with jitter, of 1..10 ms.
func crowdRounds(w *goldenWorld, r *xrand.Rand, cpus, steps int, jitter bool) {
	running := make([]int, cpus)
	for cpu := range running {
		running[cpu] = w.pick(cpu)
	}
	for w.step = 0; w.step < steps; w.step++ {
		cpu := w.step % cpus
		q := 10 * simtime.Millisecond
		if jitter {
			q = simtime.Duration(1+r.Intn(10)) * simtime.Millisecond
		}
		w.charge(running[cpu], q)
		running[cpu] = w.pick(cpu)
	}
}

// nestedFill is hierarchical GMS written the obvious way, as the oracle's φ
// rule for the hier cases: on every change, water-fill the class weights and
// then each class's member weights from scratch, each with a fresh
// readjust.Filler. Classes are visited in creation order and members in
// arrival order — the order hier sums weights in — so the rates agree to the
// bit, not merely closely.
type nestedFill struct {
	p       int
	weights []float64 // class weights, creation order
	classOf map[*sched.Thread]int
	members [][]*sched.Thread
}

func (n *nestedFill) Add(t *sched.Thread) bool {
	c := n.classOf[t]
	n.members[c] = append(n.members[c], t)
	n.fill()
	return true
}

func (n *nestedFill) Remove(t *sched.Thread) bool {
	c := n.classOf[t]
	if i := slices.Index(n.members[c], t); i >= 0 {
		n.members[c] = slices.Delete(n.members[c], i, i+1)
	}
	n.fill()
	return true
}

func (n *nestedFill) UpdateWeight(t *sched.Thread, w float64) bool {
	t.Weight = w
	n.fill()
	return true
}

func (n *nestedFill) fill() {
	var active []int
	var ws, caps []float64
	for c, m := range n.members {
		if len(m) > 0 {
			active = append(active, c)
			ws = append(ws, n.weights[c])
			caps = append(caps, float64(min(len(m), n.p)))
		}
	}
	if len(active) == 0 {
		return
	}
	for i, rate := range new(readjust.Filler).Fill(nil, ws, caps, float64(n.p)) {
		m := n.members[active[i]]
		tw, one := make([]float64, len(m)), make([]float64, len(m))
		for j, t := range m {
			tw[j], one[j] = t.Weight, 1
		}
		for j, r := range new(readjust.Filler).Fill(nil, tw, one, rate) {
			m[j].Phi = r
		}
	}
}

// goldenHierWeights are the class weights of the hierarchical golden world,
// default class first; thread id lands in class id mod 4.
var goldenHierWeights = []float64{1, 3, 2, 1}

// newGoldenHier pairs a hier.Hier with the eager oracle under nestedFill.
func newGoldenHier(t *testing.T, name string, cpus int) (*goldenWorld, *hier.Hier) {
	h := hier.New(cpus, 20*simtime.Millisecond)
	classes := []*hier.Class{nil} // nil: left to the default class
	for i, cw := range goldenHierWeights[1:] {
		classes = append(classes, h.MustAddClass(fmt.Sprint("c", i+1), cw))
	}
	rule := &nestedFill{p: cpus, weights: goldenHierWeights,
		classOf: map[*sched.Thread]int{}, members: make([][]*sched.Thread, len(goldenHierWeights))}
	w := newGoldenWorld(t, name, h, newOracle(rule))
	w.assign = func(id int, sut, ora *sched.Thread) {
		c := id % len(classes)
		if classes[c] != nil {
			h.Assign(sut, classes[c])
		}
		rule.classOf[ora] = c
	}
	return w, h
}

// TestGoldenTraceFloat verifies pick-sequence equality, for flat SFS and for
// the same kernel over hier's class table.
func TestGoldenTraceFloat(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			w := newGoldenWorld(t, c.name, core.New(c.cpus, core.WithQuantum(20*simtime.Millisecond)),
				newOracle(readjust.NewTracker(c.cpus, true)))
			c.script(w, xrand.New(uint64(17+len(c.name))))
		})
		t.Run("hier/"+c.name, func(t *testing.T) {
			w, _ := newGoldenHier(t, "hier/"+c.name, c.cpus)
			c.script(w, xrand.New(uint64(17+len(c.name))))
		})
	}
}

// regimePick wraps the scheduler under test and judges each pick by the key
// regime it ran in: while the classes number no more than a pick may always
// visit (WithinFreeScan), byClass is an unordered list that a pick scans
// against the current v, so no pick there refreshes the keys.
type regimePick struct {
	*core.SFS
	err error
}

func (r *regimePick) Pick(cpu int, now simtime.Time) *sched.Thread {
	within, sweeps := r.WithinFreeScan(), r.Stats().SurplusSweeps
	t := r.SFS.Pick(cpu, now)
	if r.err == nil && within && r.Stats().SurplusSweeps != sweeps {
		r.err = fmt.Errorf("within the free scan a pick refreshed the keys (picked %v)", t)
	}
	return t
}

// TestGoldenTraceKeyRegimes replays every golden world with the class keys'
// two regimes checked at every pick (regimePick) — the picks are the oracle's
// all the same. Every heap position's cached key must also yield its thread's
// fresh surplus to the bit (CheckKeyJudgement): picks turn positions down on
// it, thread unseen.
//
// Whether a world ever refreshes pins where the keys are read. A world within
// the free scan throughout never does: its picks scan. Above it, a world that
// charges each thread before the next pick never finds v's holder running, so
// every pick is the least head and the surplus heap is never read (churn-heavy
// picks and charges at once); the worlds that keep four threads running find
// the holder of v among them and walk.
func TestGoldenTraceKeyRegimes(t *testing.T) {
	// The worlds whose weights keep them within the free scan throughout.
	eager := map[string]bool{"uniprocessor": true, "smp4-deep-queue": true, "infeasible-churn": true,
		"crowd-three-weights": true}
	// The lazy worlds in which no pick finds v's holder running.
	neverWalks := map[string]bool{"churn-heavy": true}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			s := &regimePick{SFS: core.New(c.cpus, core.WithQuantum(20*simtime.Millisecond))}
			w := newGoldenWorld(t, c.name, s, newOracle(readjust.NewTracker(c.cpus, true)))
			everLazy := false
			w.check = func() error {
				everLazy = everLazy || !s.WithinFreeScan()
				if s.err != nil {
					return s.err
				}
				return s.CheckKeyJudgement()
			}
			c.script(w, xrand.New(uint64(17+len(c.name))))
			if everLazy == eager[c.name] {
				t.Fatalf("left the free scan: %v, expected %v; the world no longer tests its regime", everLazy, !eager[c.name])
			}
			sweeps := s.Stats().SurplusSweeps
			t.Logf("%d sweeps", sweeps)
			if none := eager[c.name] || neverWalks[c.name]; (sweeps == 0) != none {
				t.Fatalf("%d sweeps; want none: %v", sweeps, none)
			}
		})
	}
}

// TestGoldenTraceFloatTies is the tie hazard of the φ-class queue: a class's
// least start tag need not be its least thread under (surplus, weight desc,
// ID) when adjacent tags round to the same surplus. With φ = 3 and v = 0 the
// products 3·(1.5 + k·2⁻⁵²) round onto a grid of 4·2⁻⁵², so k = 2 and 3 share
// a surplus, as do k = 5 and 6, and within each pair the lower ID wins
// although its tag is the larger. Thread 1 is dispatched first and never charged, which holds v at 0.
func TestGoldenTraceFloatTies(t *testing.T) {
	s := core.New(2, core.WithQuantum(20*simtime.Millisecond))
	w := newGoldenWorld(t, "float-ties", s, newOracle(readjust.NewTracker(2, true)))
	w.check = s.CheckInvariants
	w.add(w.mk(3))
	for k := 7; k >= 2; k-- {
		id := w.mk(3)
		tag := 1.5 + float64(k)*0x1p-52
		w.sutT[id].Finish, w.oraT[id].Finish = tag, tag
		w.add(id)
	}
	if id := w.pick(0); id != 1 {
		t.Fatalf("first pick %d, want the thread at v", id)
	}
	var order []int
	for range 6 {
		order = append(order, w.pick(1))
	}
	// IDs 2..7 carry k = 7..2; by surplus then ID: {k=3,2}, k=4, {k=6,5}, k=7.
	if want := []int{6, 7, 5, 3, 4, 2}; !slices.Equal(order, want) {
		t.Fatalf("pick order %v, want %v", order, want)
	}
}

// TestGoldenTraceZeroTies is the hazard the kernel's zero-tie flag guards: a
// start tag so small that its lead over v, times φ, underflows to a zero
// surplus. At v = 0 and φ = 0.5 the least positive tag 2⁻¹⁰⁷⁴ has surplus
// 0.5·2⁻¹⁰⁷⁴ = 0, so thread 1 ties thread 2, which holds v, and precedes it by
// ID: the waiting holder of v, the pick's O(1) answer, is not the pick.
func TestGoldenTraceZeroTies(t *testing.T) {
	s := core.New(2, core.WithQuantum(20*simtime.Millisecond))
	w := newGoldenWorld(t, "zero-ties", s, newOracle(readjust.NewTracker(2, true)))
	w.check = s.CheckInvariants
	tiny, holder := w.mk(0.5), w.mk(0.5)
	w.sutT[tiny].Finish, w.oraT[tiny].Finish = 0x1p-1074, 0x1p-1074
	w.add(holder)
	w.add(tiny)
	if id := w.pick(0); id != tiny {
		t.Fatalf("first pick %d, want %d, tied at zero surplus with the holder of v and older", id, tiny)
	}
	if id := w.pick(1); id != holder {
		t.Fatalf("second pick %d, want the holder of v", id)
	}
}

// TestGoldenTraceInvariants re-runs the churn workloads with invariant checks
// after every operation, covering the vRef and φ-class bookkeeping under
// arrivals, departures, weight changes and long pick scans — and, for hier,
// the class table's membership against the kernel's queues.
func TestGoldenTraceInvariants(t *testing.T) {
	for _, c := range goldenCases() {
		if c.name != "churn-heavy" && c.name != "infeasible-churn" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			s := core.New(c.cpus, core.WithQuantum(20*simtime.Millisecond))
			w := newGoldenWorld(t, c.name, s, newOracle(readjust.NewTracker(c.cpus, true)))
			w.check = s.CheckInvariants
			c.script(w, xrand.New(99))
		})
		t.Run("hier/"+c.name, func(t *testing.T) {
			w, h := newGoldenHier(t, "hier/"+c.name, c.cpus)
			w.check = h.CheckInvariants
			c.script(w, xrand.New(99))
		})
	}
}
