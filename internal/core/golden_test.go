package core_test

// Golden-trace differential tests: the lazily-evaluated exact scheduler must
// produce decisions bit-identical to the paper's eager algorithm — recompute
// every surplus against the current virtual time at every scheduling
// instance and pick the minimum. The oracle below implements that eager
// algorithm from scratch (no shared queue machinery, no stored surpluses),
// using the same floating-point and fixed-point expressions, and the tests
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
	"sfsched/internal/fixedpoint"
	"sfsched/internal/hier"
	"sfsched/internal/phi"
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

// oracle is the eager reference implementation of exact-mode SFS: a flat
// slice of runnable threads, surpluses recomputed from scratch on demand.
// For flat SFS its rule is a phi.Tracker of its own, so that readjusted φ
// values are arithmetic-identical to the scheduler's; it mirrors the seed's
// tag update expressions exactly.
type oracle struct {
	p            int
	weights      phiRule
	threads      []*sched.Thread
	v            float64
	lastFinish   float64
	fixed        bool
	scale        fixedpoint.Scale
	fxV          fixedpoint.Value
	fxLastFinish fixedpoint.Value
	margin       float64 // affinity margin; <0 disables
}

func newOracle(p int, fixedDigits int, margin float64, rule phiRule) *oracle {
	o := &oracle{p: p, weights: rule, margin: margin}
	if fixedDigits > 0 {
		o.fixed = true
		o.scale = fixedpoint.MustScale(fixedDigits)
	}
	return o
}

func (o *oracle) recomputeV() {
	if len(o.threads) == 0 {
		o.v = o.lastFinish
		o.fxV = o.fxLastFinish
		return
	}
	best := o.threads[0]
	for _, t := range o.threads[1:] {
		if t.Start < best.Start || (t.Start == best.Start && t.ID < best.ID) {
			best = t
		}
	}
	o.v = best.Start
	o.fxV = best.FxStart
}

func (o *oracle) Add(t *sched.Thread, now simtime.Time) error {
	if o.fixed {
		if t.FxFinish > o.fxV {
			t.FxStart = t.FxFinish
		} else {
			t.FxStart = o.fxV
		}
		t.Start = o.scale.Float(t.FxStart)
	} else {
		if t.Finish > o.v {
			t.Start = t.Finish
		} else {
			t.Start = o.v
		}
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
	if o.fixed {
		phiFx := o.scale.FromFloat(t.Phi)
		t.FxFinish = t.FxStart + o.scale.DivValue(o.scale.FromInt(int64(ran)), phiFx)
		t.FxStart = t.FxFinish
		o.fxLastFinish = t.FxFinish
		t.Start = o.scale.Float(t.FxStart)
		t.Finish = o.scale.Float(t.FxFinish)
		o.lastFinish = t.Finish
	} else {
		t.Finish = t.Start + ran.Seconds()/t.Phi
		t.Start = t.Finish
		o.lastFinish = t.Finish
	}
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

func (o *oracle) fresh(t *sched.Thread) float64 {
	if o.fixed {
		return o.scale.Float(o.scale.MulValue(o.scale.FromFloat(t.Phi), t.FxStart-o.fxV))
	}
	return t.Phi * (t.Start - o.v)
}

// Pick scans every runnable thread and returns the non-running one that is
// minimal under (surplus asc, weight desc, ID asc) — the surplus queue's
// order — with the affinity extension's window applied when enabled.
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
		if f := o.fresh(t); better(f, t, bestS, best) {
			best, bestS = t, f
		}
	}
	if o.margin >= 0 && best != nil && best.LastCPU != cpu {
		var bestAff *sched.Thread
		var bestAffS float64
		for _, t := range o.threads {
			if t.Running() || t.LastCPU != cpu {
				continue
			}
			if f := o.fresh(t); f-bestS <= o.margin && better(f, t, bestAffS, bestAff) {
				bestAff, bestAffS = t, f
			}
		}
		if bestAff != nil {
			return bestAff
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
	margin float64 // affinity margin, <0 off
	script func(w *goldenWorld, r *xrand.Rand)
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"uniprocessor", 1, -1, func(w *goldenWorld, r *xrand.Rand) {
			// The §2.3 reduction workload: mixed weights, variable quanta.
			for i := 0; i < 6; i++ {
				w.add(w.mk(float64(1 + r.Intn(20))))
			}
			for w.step = 0; w.step < 4000; w.step++ {
				id := w.pick(0)
				w.charge(id, simtime.Duration(1+r.Intn(50))*simtime.Millisecond)
			}
		}},
		{"smp4-mixed-weights", 4, -1, func(w *goldenWorld, r *xrand.Rand) {
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
		{"churn-heavy", 4, -1, func(w *goldenWorld, r *xrand.Rand) {
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
		{"smp4-deep-queue", 4, -1, func(w *goldenWorld, r *xrand.Rand) {
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
		{"infeasible-churn", 4, -1, func(w *goldenWorld, r *xrand.Rand) {
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
		{"crowd-three-weights", 4, -1, func(w *goldenWorld, r *xrand.Rand) {
			// 1200 threads admitted at one virtual time in three φ-classes,
			// equal quanta: whole classes share a start tag, round after
			// round, and every class ties with every other at the start.
			for i := 0; i < 1200; i++ {
				w.add(w.mk(float64(1 + i%3)))
			}
			crowdRounds(w, r, 4, 3000, false)
		}},
		{"crowd-distinct", 4, -1, func(w *goldenWorld, r *xrand.Rand) {
			// The degenerate shape: as many φ-classes as threads, all tied
			// at zero surplus until the ramp-up ends.
			for i := 0; i < 1000; i++ {
				w.add(w.mk(1 + float64(i)/64 + r.Float64()/128))
			}
			crowdRounds(w, r, 4, 3000, true)
		}},
		{"smp4-affinity", 4, 0.05, func(w *goldenWorld, r *xrand.Rand) {
			for i := 0; i < 24; i++ {
				w.add(w.mk(float64(1 + r.Intn(8))))
			}
			var running [4]int
			for cpu := 0; cpu < 4; cpu++ {
				running[cpu] = w.pick(cpu)
			}
			for w.step = 0; w.step < 4000; w.step++ {
				cpu := (w.step * 7) % 4
				w.charge(running[cpu], simtime.Duration(1+r.Intn(25))*simtime.Millisecond)
				running[cpu] = w.pick(cpu)
			}
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
// then each class's member weights from scratch with the allocating
// readjust.WaterFill. Classes are visited in creation order and members in
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
	for i, rate := range readjust.WaterFill(ws, caps, float64(n.p)) {
		m := n.members[active[i]]
		tw, one := make([]float64, len(m)), make([]float64, len(m))
		for j, t := range m {
			tw[j], one[j] = t.Weight, 1
		}
		for j, r := range readjust.WaterFill(tw, one, rate) {
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
	w := newGoldenWorld(t, name, h, newOracle(cpus, 0, -1, rule))
	w.assign = func(id int, sut, ora *sched.Thread) {
		c := id % len(classes)
		if classes[c] != nil {
			h.Assign(sut, classes[c])
		}
		rule.classOf[ora] = c
	}
	return w, h
}

// TestGoldenTraceFloat verifies pick-sequence equality in float64 mode, for
// flat SFS and — every case but the affinity one, an SFS-only option — for
// the same kernel over hier's class table.
func TestGoldenTraceFloat(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			opts := []core.Option{core.WithQuantum(20 * simtime.Millisecond)}
			if c.margin >= 0 {
				opts = append(opts, core.WithAffinity(c.margin))
			}
			w := newGoldenWorld(t, c.name, core.New(c.cpus, opts...),
				newOracle(c.cpus, 0, c.margin, phi.NewTracker(c.cpus, true)))
			c.script(w, xrand.New(uint64(17+len(c.name))))
		})
		if c.margin >= 0 {
			continue
		}
		t.Run("hier/"+c.name, func(t *testing.T) {
			w, _ := newGoldenHier(t, "hier/"+c.name, c.cpus)
			c.script(w, xrand.New(uint64(17+len(c.name))))
		})
	}
}

// TestGoldenTraceFixed verifies pick-sequence equality in fixed-point mode
// (4 digits, the paper's kernel configuration).
func TestGoldenTraceFixed(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			opts := []core.Option{core.WithQuantum(20 * simtime.Millisecond), core.WithFixedPoint(4)}
			if c.margin >= 0 {
				opts = append(opts, core.WithAffinity(c.margin))
			}
			s := core.New(c.cpus, opts...)
			w := newGoldenWorld(t, c.name, s, newOracle(c.cpus, 4, c.margin, phi.NewTracker(c.cpus, true)))
			c.script(w, xrand.New(uint64(17+len(c.name))))
			if s.Stats().Rebases != 0 {
				t.Fatalf("unexpected rebase during golden run (oracle does not model rebasing)")
			}
		})
	}
}

// TestGoldenTraceFixedRebase runs the churn workloads in fixed point with a
// rebase threshold a charge or two wide, invariants checked after every
// operation. A rebase shifts every runnable thread's tags and the vRef epoch
// by the minimum start tag, so differences — all a decision reads — are kept
// and the picks must still be the never-rebasing oracle's; what it must also
// do is rebuild every cached start key (the heaps' Validate compares them with
// the tags) and read the minimum off a queue head that the charge has already
// repositioned.
func TestGoldenTraceFixedRebase(t *testing.T) {
	for _, c := range goldenCases() {
		if c.name != "churn-heavy" && c.name != "infeasible-churn" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			s := core.New(c.cpus, core.WithQuantum(20*simtime.Millisecond), core.WithFixedPoint(4),
				core.WithRebaseThreshold(1<<26)) // a 20 ms charge at φ = 3 is 2²⁶ tag units
			w := newGoldenWorld(t, c.name, s, newOracle(c.cpus, 4, -1, phi.NewTracker(c.cpus, true)))
			w.check = s.CheckInvariants
			c.script(w, xrand.New(99))
			if n := s.Stats().Rebases; n < 20 {
				t.Fatalf("%d rebases mid-churn; the threshold is too high for the script", n)
			}
		})
	}
}

// regimePick wraps the scheduler under test and judges each pick by the key
// regime it ran in: while the classes number no more than a pick may always
// visit (WithinFreeScan), a pick either returns the least class head — the
// waiting holder of v — or walks the classes, and a walk refreshes drifted
// keys first, so it ends on fresh ones.
type regimePick struct {
	*core.SFS
	err error
}

func (r *regimePick) Pick(cpu int, now simtime.Time) *sched.Thread {
	within, least := r.WithinFreeScan(), r.LeastHead()
	t := r.SFS.Pick(cpu, now)
	if r.err == nil && within && t != least && !r.KeysFresh() {
		r.err = fmt.Errorf("within the free scan a pick passed over the least class head %v for %v on drifted keys", least, t)
	}
	return t
}

// TestGoldenTraceKeyRegimes replays every golden world in both arithmetics
// with the class keys' two regimes checked at every pick (regimePick) — the
// picks are the oracle's all the same. In float arithmetic every heap
// position's cached key must also yield its thread's fresh surplus to the bit
// (CheckKeyJudgement): picks turn positions down on it, thread unseen.
//
// Whether a world ever refreshes pins where the keys are read. A world that
// charges each thread before the next pick never finds v's holder running, so
// every pick is the least head and the surplus heap is never read: the
// uniprocessor (SFS ≡ SFQ, §2.3) and the two churn worlds, which pick and
// charge at once. The worlds that keep four threads running find the holder
// of v among them and walk, as every pick does with the affinity extension on.
func TestGoldenTraceKeyRegimes(t *testing.T) {
	// The worlds whose weights keep them within the free scan throughout.
	eager := map[string]bool{"uniprocessor": true, "smp4-deep-queue": true, "infeasible-churn": true,
		"crowd-three-weights": true, "smp4-affinity": true}
	// The worlds in which no pick finds v's holder running.
	neverSweeps := map[string]bool{"uniprocessor": true, "churn-heavy": true, "infeasible-churn": true}
	for _, c := range goldenCases() {
		for _, digits := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/digits=%d", c.name, digits), func(t *testing.T) {
				opts := []core.Option{core.WithQuantum(20 * simtime.Millisecond)}
				if digits > 0 {
					opts = append(opts, core.WithFixedPoint(digits))
				}
				if c.margin >= 0 {
					opts = append(opts, core.WithAffinity(c.margin))
				}
				s := &regimePick{SFS: core.New(c.cpus, opts...)}
				w := newGoldenWorld(t, c.name, s, newOracle(c.cpus, digits, c.margin, phi.NewTracker(c.cpus, true)))
				everLazy := false
				w.check = func() error {
					everLazy = everLazy || !s.WithinFreeScan()
					if s.err != nil || digits > 0 {
						return s.err
					}
					return s.CheckKeyJudgement()
				}
				c.script(w, xrand.New(uint64(17+len(c.name))))
				if everLazy == eager[c.name] {
					t.Fatalf("left the free scan: %v, expected %v; the world no longer tests its regime", everLazy, !eager[c.name])
				}
				sweeps := s.Stats().SurplusSweeps
				t.Logf("%d sweeps over %d decisions", sweeps, s.Stats().Decisions)
				if (sweeps == 0) != neverSweeps[c.name] {
					t.Fatalf("%d sweeps; want none: %v", sweeps, neverSweeps[c.name])
				}
			})
		}
	}
}

// TestGoldenTraceFixedTies is the truncation hazard of the φ-class queue:
// with φ < 1 in fixed point, start tags a unit apart truncate to the same
// surplus, so a class's least start tag need not be its least thread under
// (surplus, weight desc, ID). Threads enter with finish tags a few units
// apart — later IDs earlier — in two shapes: equal fractional weights on two
// CPUs (ties fall to the ID), and no more threads than CPUs (two of them
// dispatching), where every φ is the least weight and the weights differ
// (ties fall to the weight). Equal quanta keep the tags those few units apart for the whole
// run.
func TestGoldenTraceFixedTies(t *testing.T) {
	for _, c := range []struct {
		name    string
		cpus    int
		busy    int // CPUs the script keeps dispatching on
		weights []float64
	}{
		{"equal-weights", 2, 2, []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}},
		{"min-weight-phi", 6, 2, []float64{0.2, 0.9, 0.5, 0.7, 0.9, 0.4}},
		{"mixed", 2, 2, []float64{0.25, 0.3, 0.25, 0.75, 0.3, 0.25, 0.75, 0.3, 0.5, 0.5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := core.New(c.cpus, core.WithQuantum(20*simtime.Millisecond), core.WithFixedPoint(4))
			w := newGoldenWorld(t, c.name, s, newOracle(c.cpus, 4, -1, phi.NewTracker(c.cpus, true)))
			w.check = s.CheckInvariants
			r := xrand.New(5)
			ids := make([]int, len(c.weights))
			for i, wt := range c.weights {
				ids[i] = w.mk(wt)
			}
			// The wakeup rule lifts a finish tag to v, so the least tag
			// enters first: the last ID.
			for i := len(ids) - 1; i >= 0; i-- {
				tag := fixedpoint.Value(1000 + len(ids) - i + r.Intn(2))
				w.sutT[ids[i]].FxFinish, w.oraT[ids[i]].FxFinish = tag, tag
				w.add(ids[i])
			}
			running := make([]int, c.busy)
			for cpu := range running {
				running[cpu] = w.pick(cpu)
			}
			var parked []int
			for w.step = 0; w.step < 4000; w.step++ {
				cpu := w.step % c.busy
				if id := running[cpu]; id != 0 {
					w.charge(id, simtime.Duration(1+w.step%2))
				}
				switch op := r.Intn(16); {
				case op == 0 && len(w.ids) > 1: // block a waiting thread
					id := w.ids[r.Intn(len(w.ids))]
					w.remove(id)
					parked = append(parked, id)
				case op == 1 && len(parked) > 0:
					w.add(parked[0])
					parked = parked[1:]
				}
				running[cpu] = w.pick(cpu)
			}
		})
	}
}

// TestGoldenTraceFloatTies is the same hazard in float arithmetic, where it
// takes adjacent tags: with φ = 3 and v = 0 the products 3·(1.5 + k·2⁻⁵²)
// round onto a grid of 4·2⁻⁵², so k = 2 and 3 share a surplus, as do k = 5
// and 6, and within each pair the lower ID wins although its tag is the
// larger. Thread 1 is dispatched first and never charged, which holds v at 0.
func TestGoldenTraceFloatTies(t *testing.T) {
	s := core.New(2, core.WithQuantum(20*simtime.Millisecond))
	w := newGoldenWorld(t, "float-ties", s, newOracle(2, 0, -1, phi.NewTracker(2, true)))
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
			w := newGoldenWorld(t, c.name, s, newOracle(c.cpus, 0, -1, phi.NewTracker(c.cpus, true)))
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
