// Package core implements Surplus Fair Scheduling (SFS), the paper's primary
// contribution (§2.3), together with the kernel implementation techniques of
// §3: the sorted run queue (one heap per φ-class in place of the paper's three
// lists), fixed-point tag arithmetic with wraparound rebasing, and the weight
// readjustment hook invoked whenever the runnable set changes. The paper's
// §3.2 bounded-examination heuristic is reproduced where Figure 3 measures it
// (internal/experiments/fig3.go), over this kernel, not inside it.
//
// # Algorithm
//
// Every thread carries a start tag S_i and finish tag F_i. When a thread
// runs for q units its finish tag becomes F_i = S_i + q/φ_i, where φ_i is
// the instantaneous weight supplied by the scheduler's PhiSource — Figure 2's
// readjustment (internal/phi) for flat SFS, nested water-filling over a class
// table for hierarchical SFS (internal/hier) — and its start tag advances to
// F_i.
// The system's virtual time v is the minimum start tag over runnable threads
// (the finish tag of the last thread to run when the machine idles). The
// surplus of a thread is
//
//	α_i = φ_i · (S_i − v)
//
// which approximates the extra service the thread has received compared with
// the idealized GMS fluid schedule (internal/gms). At each scheduling
// instance SFS runs the thread with the least surplus. On a uniprocessor the
// thread with the least surplus is the thread with the least start tag, so
// SFS reduces to SFQ; TestSFSReducesToSFQOnUniprocessor checks trace
// equality.
//
// # Hot-path design: the φ-class surplus queue (DESIGN.md §3)
//
// A charge usually advances the virtual time (the charged thread held the
// minimum start tag), and every surplus depends on v, so the obvious exact
// implementation — recompute all n surpluses and re-sort after every charge —
// costs O(n) per scheduling decision. But among threads with the same φ,
// least surplus is least start tag for every v (the §2.3 reduction to SFQ,
// applied per weight). So the kernel (classq.go) keeps one class per distinct
// φ in the runnable set, each a min-heap of its threads on (start tag, weight
// desc, ID) that no change of v disturbs — the thread's only queue in the
// kernel: it is the surplus queue and the start-tag queue at once — and over
// the classes two heaps: one keyed by the class head's surplus against a
// reference virtual time vRef (the epoch of the last refresh), one by the
// class head's start tag, whose minimum is v. Picks recover the exact minimum
// fresh surplus from the stale class order using the bound
//
//	α_i(v) ≥ α_i(vRef) − φ_max·(v − vRef)
//
// (surpluses shrink by at most φ_max per unit of virtual time). The costs,
// for n threads in C classes:
//
//   - Charge, one O(log n/C) sift: the thread moves inside its class heap;
//     if it led the class, the class is re-keyed in both class-level heaps,
//     O(log C).
//   - Add / Remove: the class heap and the φ source's weight heap.
//   - Pick, O(classes admitted by the bound + p + ties): inside an admitted
//     class only the head, the running threads and threads whose different
//     tag rounds or truncates to the same surplus are looked at.
//   - Refresh, O(C) for C classes. While C ≤ 8+√C (C ≤ 11) no pick under
//     drift could visit more classes than it may, and re-keying them costs
//     less than the walk over all of them it would be instead: the keys are
//     refreshed wherever v moves, and a pick reads the first admitted class.
//     Beyond that, when a pick under drift visits more than 8+√C classes.
//
// With all-distinct weights every class holds one thread and this is a
// per-thread lazy heap with one more indirection. Decisions are bit-identical
// to the eager implementation (TestGoldenTrace*).
//
// # Extensions
//
// WithAffinity enables the processor-affinity extension sketched in the
// paper's future-work section (§5): among threads whose surplus is within a
// configurable margin of the minimum, the scheduler prefers one that last ran
// on the dispatching CPU, trading a bounded amount of short-term fairness for
// cache locality. WithoutReadjustment disables weight readjustment for
// ablation experiments that isolate its contribution.
package core

import (
	"fmt"
	"math"
	"sort"

	"sfsched/internal/fixedpoint"
	"sfsched/internal/phi"
	"sfsched/internal/runqueue"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// DefaultQuantum is the maximum quantum used throughout the paper's
// evaluation (§4.1).
const DefaultQuantum = 200 * simtime.Millisecond

// Stats counts scheduler-internal events for the overhead experiments
// (Table 1, Figure 7) and the ablation benchmarks.
type Stats struct {
	Decisions     int64 // Pick calls that returned a thread
	Readjustments int64 // weight readjustment passes that changed some φ
	SurplusSweeps int64 // surplus queue refreshes, every class re-keyed: per v change at C ≤ 11 classes, else per over-long pick scan
	Rebases       int64 // fixed-point tag wraparound rebases
	Migrations    int64 // picks where the thread last ran on a different CPU
}

// SFS is a surplus fair scheduler for a symmetric multiprocessor. It is not
// safe for concurrent use; the simulated machine serializes access, exactly
// as the kernel's run-queue lock does.
type SFS struct {
	p       int
	quantum simtime.Duration

	weights PhiSource // where φ values come from; owns the weight queue

	v          float64 // virtual time
	lastFinish float64 // finish tag of the thread that ran last

	// The surplus queue (classq.go): one class per distinct φ in the runnable set,
	// each a heap of its threads by start tag — a thread's only kernel queue
	// — and over them two heaps of classes: byClass, keyed by the class
	// head's surplus against vRef, the virtual time of the last refresh
	// (picks compensate for the drift v − vRef), and byHead, keyed by the
	// class head's start tag, whose minimum is v.
	byClass     *runqueue.Heap[*class]
	byHead      *runqueue.Heap[*class]
	classOf     map[float64]*class // φ → its class, live classes only
	classes     []*class           // every class ever made, by slot (Thread.PhiClass − 1)
	freeClasses []*class           // emptied classes awaiting reuse
	classStack  []int32            // pick's heap-position stacks
	threadStack []int32
	vRef        float64
	fxVRef      fixedpoint.Value
	scanLimit   int  // pick scan length that triggers a refresh
	needRefresh bool // set by an over-long pick scan, consumed by Charge
	zeroTies    bool // some tag or φ is small enough that a positive lead S − v may have zero surplus

	useReadjust bool

	// Fixed-point mode (§3.2): tags computed in scaled integers. fxShift
	// accumulates the total wraparound-rebase shift; threads carry the
	// shift already applied to their tags (Thread.FxShift), so a thread
	// that blocked before a rebase is moved into the current frame on Add.
	fixed        bool
	scale        fixedpoint.Scale
	fxV          fixedpoint.Value
	fxLastFinish fixedpoint.Value
	fxShift      fixedpoint.Value
	rebaseThresh fixedpoint.Value
	fxSlack      float64 // truncation allowance for the pick-scan bound

	affinityMargin float64 // <0 disables the affinity extension

	stats Stats
}

// Option configures an SFS instance.
type Option func(*SFS)

// WithQuantum sets the maximum quantum granted per dispatch.
func WithQuantum(q simtime.Duration) Option {
	return func(s *SFS) { s.quantum = q }
}

// WithFixedPoint switches tag arithmetic to scaled integers with factor
// 10^digits, reproducing the kernel implementation (the paper found 4 digits
// adequate).
func WithFixedPoint(digits int) Option {
	return func(s *SFS) {
		s.fixed = true
		s.scale = fixedpoint.MustScale(digits)
		// MulValue truncates; a fresh surplus recomputed against the
		// current v can undershoot the drift-compensated stored value by a
		// few quantization units. The pick-scan cutoff allows for them.
		s.fxSlack = 3.0 / float64(s.scale.Factor())
	}
}

// WithRebaseThreshold overrides the tag magnitude that triggers a wraparound
// rebase; tests use small thresholds to exercise the rebase path.
func WithRebaseThreshold(v fixedpoint.Value) Option {
	return func(s *SFS) { s.rebaseThresh = v }
}

// WithAffinity enables the processor-affinity extension: among threads whose
// surplus exceeds the minimum by at most margin, prefer one whose last CPU is
// the dispatching CPU. margin is in surplus units (weighted virtual time,
// i.e. seconds).
func WithAffinity(margin float64) Option {
	return func(s *SFS) { s.affinityMargin = margin }
}

// WithoutReadjustment disables the weight readjustment algorithm (φ_i = w_i
// always); used by ablation experiments only.
func WithoutReadjustment() Option {
	return func(s *SFS) { s.useReadjust = false }
}

// PhiSource supplies the instantaneous weights the tag algebra divides by.
// The paper decouples where φ comes from and what the scheduler does with it
// (§2.1: readjustment "can be employed with most existing GPS-based
// scheduling algorithms"); this interface is that seam. *phi.Tracker
// (Figure 2 over the weight queue) is the source New installs;
// internal/hier supplies hierarchical GMS rates from a class table. A source
// tracks exactly the runnable set: the kernel reports every arrival,
// departure and weight change through it and nowhere else, so state keyed by
// membership (hier's classes) belongs behind it.
//
// The methods that readjust report whether any tracked φ changed. Whenever a
// source assigns a tracked thread's φ it calls the OnPhiChange hook for that
// thread; the hook also fires unconditionally for the thread passed to Add,
// AddDeferred (derived caches such as FxPhi are primed even when φ is
// unchanged) and UpdateWeight (weight is a tie-break key of the surplus
// queue).
type PhiSource interface {
	// Add starts tracking t and readjusts.
	Add(t *sched.Thread) bool
	// AddDeferred starts tracking t, leaving t.Phi positive, without
	// readjusting; the caller runs one Readjust for the whole batch.
	AddDeferred(t *sched.Thread)
	// Remove stops tracking t and readjusts. A source may leave t.Phi at
	// any positive value: a thread removed mid-slice is still charged.
	Remove(t *sched.Thread) bool
	// UpdateWeight sets the tracked thread's requested weight and
	// readjusts.
	UpdateWeight(t *sched.Thread, w float64) bool
	// Readjust recomputes φ for the tracked set.
	Readjust() bool
	// OnPhiChange registers the hook; the kernel calls it once, before
	// any thread is tracked.
	OnPhiChange(fn func(*sched.Thread))
	// Sum returns Σ w_i over the tracked set (requested weights).
	Sum() float64
	// MaxPhi returns an upper bound on every tracked thread's φ, the
	// φ_max of the drift-bounded pick scan; it need not be tight.
	MaxPhi() float64
	// Len returns the number of tracked threads.
	Len() int
	// Passes counts the readjustments that changed some φ.
	Passes() int64
	// Validate checks the source's own structural invariants.
	Validate() error
}

// New returns an SFS scheduler for p processors with Figure 2's weight
// readjustment as its φ source. It panics if p < 1; the processor count comes
// from static machine configuration, never from user input.
func New(p int, opts ...Option) *SFS {
	s := newKernel(p)
	for _, o := range opts {
		o(s)
	}
	s.setSource(phi.NewTracker(p, s.useReadjust))
	return s
}

// NewOver returns the float-arithmetic SFS kernel for p
// processors over a caller-supplied φ source: everything New's scheduler does
// — tags, virtual time, the lazily refreshed surplus queue, picks, preemption
// ranks, frame translation, batch admission — with src deciding each
// thread's φ. A non-positive quantum selects DefaultQuantum.
func NewOver(p int, quantum simtime.Duration, src PhiSource) *SFS {
	s := newKernel(p)
	if quantum > 0 {
		s.quantum = quantum
	}
	s.setSource(src)
	return s
}

func newKernel(p int) *SFS {
	if p < 1 {
		panic(fmt.Sprintf("core: invalid processor count %d", p))
	}
	return &SFS{
		p:              p,
		quantum:        DefaultQuantum,
		useReadjust:    true,
		scanLimit:      scanBase,
		rebaseThresh:   fixedpoint.WrapThreshold,
		affinityMargin: -1,
	}
}

// setSource, called once the options are in, builds the class-level heaps and
// installs the φ source and its hook. φ changes arrive thread-by-thread
// from the readjustment pass; the hook keeps the derived state (FxPhi cache,
// class membership) of each affected thread current instead of sweeping the
// whole set. It also fires for a weight change at an unchanged φ, and weight
// is a tie-break key inside the class, so the thread is re-inserted either
// way.
func (s *SFS) setSource(src PhiSource) {
	s.byClass = runqueue.NewKeyedHeap(runqueue.SlotSurplus, func(c *class) float64 { return c.key }, classLess)
	s.byHead = runqueue.NewKeyedHeap(runqueue.SlotPrimary,
		func(c *class) float64 { return c.headStart },
		func(a, b *class) bool { return s.inClassLess(a.head, b.head) })
	s.classOf = make(map[float64]*class)
	s.weights = src
	src.OnPhiChange(func(t *sched.Thread) {
		if s.fixed {
			t.FxPhi = s.scale.FromFloat(t.Phi)
		}
		if t.PhiClass != 0 {
			s.leave(t)
			s.join(t)
		}
	})
}

// SFS implements the full capability set the sharded runtime can exploit.
var (
	_ sched.Scheduler       = (*SFS)(nil)
	_ sched.VirtualTimer    = (*SFS)(nil)
	_ sched.LagReporter     = (*SFS)(nil)
	_ sched.FrameTranslator = (*SFS)(nil)
	_ sched.Preempter       = (*SFS)(nil)
	_ sched.BatchAdder      = (*SFS)(nil)
)

// Name implements sched.Scheduler.
func (s *SFS) Name() string { return "SFS" }

// NumCPU implements sched.Scheduler.
func (s *SFS) NumCPU() int { return s.p }

// Runnable implements sched.Scheduler.
func (s *SFS) Runnable() int { return s.weights.Len() }

// VirtualTime returns the scheduler's current virtual time v (minimum start
// tag over runnable threads).
func (s *SFS) VirtualTime() float64 { return s.v }

// FreshSurplus returns t's surplus α_i = φ_i·(S_i − v) against the current
// virtual time, in the arithmetic (float or fixed) a full refresh would use.
// The sharded runtime's rebalancer uses it (via sched.LagReporter) to choose
// migration victims: a thread with a large surplus is ahead of its ideal
// allocation, so the wakeup-style tag re-entry a migration entails costs it
// the least.
func (s *SFS) FreshSurplus(t *sched.Thread) float64 { return s.surplusAt(t, s.v, s.fxV) }

// FrameLead implements sched.FrameTranslator: the lead of t's finish tag
// over this scheduler's virtual time, in the arithmetic the instance uses.
// In fixed-point mode a thread that blocked before a wraparound rebase is
// first brought into the current tag frame, as Add would.
func (s *SFS) FrameLead(t *sched.Thread) float64 {
	if s.fixed {
		fxF := t.FxFinish - (s.fxShift - t.FxShift)
		return s.scale.Float(fxF - s.fxV)
	}
	return t.Finish - s.v
}

// SetFrameLead implements sched.FrameTranslator: rewrites t's finish tag to
// sit lead ahead of this scheduler's virtual time, so the §2.3 wakeup rule
// S_i = max(F_i, v) re-admits the thread with the position it held on the
// shard it migrated from.
func (s *SFS) SetFrameLead(t *sched.Thread, lead float64) {
	if s.fixed {
		t.FxFinish = s.fxV + s.scale.FromFloat(lead)
		t.FxShift = s.fxShift
		t.Finish = s.scale.Float(t.FxFinish)
		return
	}
	t.Finish = s.v + lead
}

// Stats returns a snapshot of internal event counters.
func (s *SFS) Stats() Stats {
	st := s.stats
	st.Readjustments = s.weights.Passes()
	return st
}

// Quantum returns the configured maximum quantum.
func (s *SFS) Quantum() simtime.Duration { return s.quantum }

// admissible reports why t may not join the runnable set, if it may not.
func (s *SFS) admissible(t *sched.Thread) error {
	if !sched.ValidWeight(t.Weight) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, t.Weight)
	}
	if s.queued(t) {
		return fmt.Errorf("%w: %v", sched.ErrAlreadyManaged, t)
	}
	return nil
}

// queued reports whether t is in the runnable set.
func (s *SFS) queued(t *sched.Thread) bool { return t.PhiClass != 0 }

// each calls fn on every runnable thread, in unspecified order.
func (s *SFS) each(fn func(*sched.Thread)) {
	all := func(t *sched.Thread) bool { fn(t); return true }
	s.byClass.Each(func(c *class) bool { c.threads.Each(all); return true })
}

// first returns a runnable thread holding the minimum start tag.
func (s *SFS) first() (*sched.Thread, bool) {
	if c, ok := s.byHead.Min(); ok {
		return c.head, true
	}
	return nil, false
}

// arrive applies the §2.3 arrival rule: a newly arriving thread receives
// start tag v; a newly woken thread receives max(F_i, v), which prevents a
// thread from banking credit while asleep and starving others on wakeup.
func (s *SFS) arrive(t *sched.Thread) {
	if !s.fixed {
		t.Start = math.Max(t.Finish, s.v)
		return
	}
	// The thread's finish tag may predate rebases that happened while it
	// slept; bring it into the current tag frame first so that the
	// max(F_i, v) wakeup rule compares like with like.
	if delta := s.fxShift - t.FxShift; delta != 0 {
		t.FxFinish -= delta
		t.Finish = s.scale.Float(t.FxFinish)
		t.FxShift = s.fxShift
	}
	if t.FxFinish > s.fxV {
		t.FxStart = t.FxFinish
	} else {
		t.FxStart = s.fxV
	}
	t.Start = s.scale.Float(t.FxStart)
}

// enqueue inserts t, tagged and already known to the φ source, into its
// φ-class. Adding a thread cannot lower v (its start tag is >= v), so only φ
// changes require updating other threads' surpluses — and the φ hook moves
// each affected thread to its new class.
func (s *SFS) enqueue(t *sched.Thread) {
	// Tags enter here and grow by charges of at least 10⁻⁹ s / 10¹², so
	// this is the one place a tag below tinyTag can appear.
	if !s.fixed && t.Start > 0 && t.Start < tinyTag {
		s.zeroTies = true
	}
	s.join(t)
	s.recomputeV()
	if s.refreshIsCheap() {
		s.refreshKeys()
	}
}

// Add implements sched.Scheduler: a new arrival or a wakeup.
func (s *SFS) Add(t *sched.Thread, now simtime.Time) error {
	if err := s.admissible(t); err != nil {
		return err
	}
	s.arrive(t)
	s.weights.Add(t)
	s.enqueue(t)
	return nil
}

// AddBatch implements sched.BatchAdder: admit a batch of newly woken threads
// at one instant, equivalent to calling Add for each element of ts in order
// but with the weight-readjustment pass run once for the whole batch. The
// sharded runtime's intake drain uses it so N simultaneous wakeups cost one
// readjustment pass.
//
// Equivalence with sequential Adds holds because φ values are a pure
// function of the final runnable set (neither Figure 2 nor water-filling has
// history), each thread's wakeup tag max(F_i, v) is unaffected by the other
// admissions (adding a thread can never lower v, and v is recomputed after
// every insertion exactly as the sequential path would), and the deferred
// readjustment's φ hook moves every thread whose φ changed to its new class
// — exactly the state N per-Add passes would have left behind.
// TestAddBatchEquivalence locks this in across the float, fixed-point and
// hierarchical variants.
func (s *SFS) AddBatch(ts []*sched.Thread, now simtime.Time) error {
	// Validate the whole batch up front (including intra-batch duplicates)
	// so that an error leaves the runnable set untouched.
	for i, t := range ts {
		if err := s.admissible(t); err != nil {
			return err
		}
		for _, u := range ts[:i] {
			if u == t {
				return fmt.Errorf("%w: %v (duplicate in batch)", sched.ErrAlreadyManaged, t)
			}
		}
	}
	for _, t := range ts {
		s.arrive(t)
		s.weights.AddDeferred(t)
		s.enqueue(t)
	}
	s.weights.Readjust()
	return nil
}

// Remove implements sched.Scheduler; called when a thread blocks or exits.
func (s *SFS) Remove(t *sched.Thread, now simtime.Time) error {
	if !s.queued(t) {
		return fmt.Errorf("%w: %v", sched.ErrNotManaged, t)
	}
	s.leave(t)
	s.weights.Remove(t)
	s.recomputeV()
	// Class keys are relative to vRef, not v, so a v change alone
	// invalidates nothing (a handful of classes is re-keyed all the same);
	// φ changes were handled by the hook.
	if s.refreshIsCheap() {
		s.refreshKeys()
	}
	if s.weights.Len() == 0 {
		s.zeroTies = false
	}
	return nil
}

// Charge implements sched.Scheduler: F_i = S_i + q/φ_i, S_i = F_i. The
// quantum length q is needed only now, after the quantum has ended, which is
// what lets SFS handle variable-length quanta (§2.3).
func (s *SFS) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	if ran < 0 {
		panic("core: negative charge")
	}
	t.Service += ran
	if s.fixed {
		t.FxFinish = t.FxStart + s.scale.DivValue(s.scale.FromInt(int64(ran)), t.FxPhi)
		t.FxStart = t.FxFinish
		s.fxLastFinish = t.FxFinish
		t.Start = s.scale.Float(t.FxStart)
		t.Finish = s.scale.Float(t.FxFinish)
	} else {
		t.Finish = t.Start + ran.Seconds()/t.Phi
		t.Start = t.Finish
	}
	s.lastFinish = t.Finish
	// Restore t's queue position before v is read and before a possible
	// rebase: both take the minimum start tag off a queue head, and t —
	// whose tag just grew — is the entry most likely to be stale there.
	if s.queued(t) { // not if it was charged after it blocked or exited mid-slice
		// The charge's one sift. The class moves, in both class-level heaps,
		// only if t led it (a tag that grew cannot take the lead).
		c := s.classes[t.PhiClass-1]
		c.threads.Fix(t)
		if c.head == t {
			s.rekey(c)
		}
	}
	if s.fixed && (fixedpoint.NeedsRebase(t.FxFinish) || t.FxFinish > s.rebaseThresh) {
		s.rebaseTags()
	}
	s.recomputeV()
	// Refresh the class keys when pick scans report the drift has grown
	// expensive, or at once while that costs less than such a scan.
	if s.needRefresh || s.refreshIsCheap() {
		s.refreshKeys()
	}
}

// Timeslice implements sched.Scheduler: SFS grants a fixed maximum quantum;
// threads may relinquish early by blocking.
func (s *SFS) Timeslice(t *sched.Thread, now simtime.Time) simtime.Duration {
	return s.quantum
}

// SetWeight implements sched.Scheduler; weights may be changed on the fly,
// as with the paper's setweight system call.
func (s *SFS) SetWeight(t *sched.Thread, w float64, now simtime.Time) error {
	if !sched.ValidWeight(w) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, w)
	}
	if !s.queued(t) {
		// Not runnable right now; the new weight takes effect on Add.
		t.Weight = w
		t.Phi = w
		return nil
	}
	// φ changed for t (and possibly others): the hook restores every
	// affected thread.
	s.weights.UpdateWeight(t, w)
	return nil
}

// Pick implements sched.Scheduler.
func (s *SFS) Pick(cpu int, now simtime.Time) *sched.Thread {
	t := s.pickExact(cpu)
	if t != nil {
		s.stats.Decisions++
		t.Decisions++
		if t.LastCPU != sched.NoCPU && t.LastCPU != cpu {
			s.stats.Migrations++
		}
	}
	return t
}

// surplusAt returns t's surplus against the virtual time ref (fxRef in
// fixed-point mode): the current one for a fresh surplus, the vRef epoch for
// the stored surplus a class is keyed by.
func (s *SFS) surplusAt(t *sched.Thread, ref float64, fxRef fixedpoint.Value) float64 {
	if s.fixed {
		return s.scale.Float(s.scale.MulValue(t.FxPhi, t.FxStart-fxRef))
	}
	return t.Phi * (t.Start - ref)
}

// betterPick reports whether (fresh, t) beats the incumbent under the
// surplus queue's order: ascending surplus, then descending weight, then ID.
func betterPick(fresh float64, t *sched.Thread, bestS float64, best *sched.Thread) bool {
	if best == nil || fresh != bestS {
		return best == nil || fresh < bestS
	}
	return heavierOrOlder(t, best)
}

// driftBound returns the pick-scan prune bound φ_max·|v−vRef| and its
// conservative slack for the current drift, given the largest instantaneous
// weight wmax.
func (s *SFS) driftBound(wmax float64) (bound, slack float64) {
	if s.fixed {
		// Surpluses multiply by FxPhi, which is φ rounded to the scale —
		// upward by up to half a unit.
		wmax += 0.5 / float64(s.scale.Factor())
	}
	drift := s.v - s.vRef
	if drift < 0 {
		drift = -drift
	}
	bound = wmax * drift
	slack = 1e-12*(bound+wmax*(math.Abs(s.v)+math.Abs(s.vRef))+1) + s.fxSlack
	return bound, slack
}

// noDrift reports whether the current virtual time still equals the vRef
// epoch, in the arithmetic the fresh surpluses would be computed in. With no
// drift every class key IS its head's fresh surplus — the state right after
// a refresh, and throughout ramp-up phases where v sits still while late
// starters catch up.
func (s *SFS) noDrift() bool {
	if s.fixed {
		return s.fxV == s.fxVRef
	}
	return s.v == s.vRef
}

// ExactMinSurplus returns the runnable non-running thread with the smallest
// fresh surplus, scanning every thread. It exists for the Figure 3 accuracy
// experiment, which compares the heuristic's pick against the true minimum.
func (s *SFS) ExactMinSurplus() (*sched.Thread, float64) {
	var best *sched.Thread
	var bestSurplus float64
	s.each(func(t *sched.Thread) {
		fresh := t.Phi * (t.Start - s.v)
		if !t.Running() && (best == nil || fresh < bestSurplus) {
			best = t
			bestSurplus = fresh
		}
	})
	return best, bestSurplus
}

// Less implements sched.Scheduler: a thread with smaller fresh surplus is
// preferred. The machine uses this for wakeup preemption.
func (s *SFS) Less(a, b *sched.Thread) bool {
	return a.Phi*(a.Start-s.v) < b.Phi*(b.Start-s.v)
}

// PreemptRank implements sched.Preempter: t's surplus α_i = φ_i·(S_i − v)
// projected forward by ran of uncharged service. Charging ran advances S_i by
// ran/φ_i, so the projected surplus is the fresh surplus plus ran seconds —
// the projection is exact in float arithmetic and an advisory approximation
// in fixed-point mode (the comparison steers only preemption flags, never tag
// state, so decision traces stay bit-identical).
func (s *SFS) PreemptRank(t *sched.Thread, ran simtime.Duration) float64 {
	return t.Phi*(t.Start-s.v) + ran.Seconds()
}

// InterimCharge implements sched.InterimCharger by delegating to Charge:
// the tag advance ran/φ is linear in ran, so charging a slice in
// installments lands the tags where one boundary charge would have — this
// is the §2.3 variable-length-quanta property. In fixed-point mode each
// installment's division truncates separately, so a split slice can differ
// from an unsplit one by a few ulps of tag; the enforcer is only armed on
// live runtimes, never under the golden differential traces, so machine
// comparisons are unaffected.
func (s *SFS) InterimCharge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	s.Charge(t, ran, now)
}

// Threads returns the runnable threads in ascending start-tag order (tests
// and metrics; the sort is paid here, off the scheduling hot path).
func (s *SFS) Threads() []*sched.Thread {
	out := make([]*sched.Thread, 0, s.weights.Len())
	s.each(func(t *sched.Thread) { out = append(out, t) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// CheckInvariants validates the paper's structural invariants; tests call it
// after every operation in paranoia mode. The invariants: the φ-classes
// (checkClasses) hold exactly the threads the φ source tracks and remain
// ordered; v equals the minimum start tag, found by looking at every runnable
// thread rather than at the queue head v was read from; all fresh surpluses
// are non-negative; and at least one runnable thread has zero surplus (the
// thread holding the minimum start tag, §2.3).
func (s *SFS) CheckInvariants() error {
	if err := s.weights.Validate(); err != nil {
		return err
	}
	n := s.weights.Len()
	if err := s.checkClasses(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	minStart, minFx := math.Inf(1), fixedpoint.Value(math.MaxInt64)
	zero := false
	var err error
	s.each(func(t *sched.Thread) {
		minStart, minFx = math.Min(minStart, t.Start), min(minFx, t.FxStart)
		fresh := t.Phi * (t.Start - s.v)
		if fresh < 0 {
			err = fmt.Errorf("core: negative surplus %g for %v", fresh, t)
		}
		zero = zero || fresh == 0
	})
	if err != nil {
		return err
	}
	if minStart != s.v || s.fixed && minFx != s.fxV {
		return fmt.Errorf("core: v=%g (fixed %d) but the least start tag is %g (fixed %d)", s.v, s.fxV, minStart, minFx)
	}
	if !zero {
		return fmt.Errorf("core: no thread with zero surplus (v=%g)", s.v)
	}
	return nil
}

// recomputeV updates the virtual time. When no thread is runnable, v takes the
// finish tag of the thread that ran last (§2.3).
func (s *SFS) recomputeV() {
	if head, ok := s.first(); ok {
		s.v = head.Start
		if s.fixed {
			s.fxV = head.FxStart
		}
	} else {
		s.v = s.lastFinish
		if s.fixed {
			s.fxV = s.fxLastFinish
		}
	}
}

// rebaseTags shifts all tags by the minimum start tag and resets the virtual
// time, the paper's wraparound handling (§3.2). Differences between tags —
// the only inputs to scheduling decisions — are preserved, and since the
// vRef epoch shifts along with them, class keys remain exact without a
// refresh. The shift is accumulated in fxShift and stamped on each runnable
// thread; threads asleep during the rebase are caught up on their next Add.
func (s *SFS) rebaseTags() {
	var base fixedpoint.Value
	if head, ok := s.first(); ok {
		base = head.FxStart
	} else {
		// No runnable threads: the frame collapses to v = lastFinish = 0.
		base = s.fxLastFinish
	}
	s.fxShift += base
	s.each(func(t *sched.Thread) {
		fixedpoint.Rebase(base, &t.FxStart, &t.FxFinish)
		t.FxShift = s.fxShift
		t.Start = s.scale.Float(t.FxStart)
		t.Finish = s.scale.Float(t.FxFinish)
	})
	// Every cached start key moved by base; the order did not, so Init
	// re-reads the keys and sifts nothing.
	s.byClass.Each(func(c *class) bool { c.threads.Init(); c.headStart = c.threads.KeyAt(0); return true })
	s.byHead.Init()
	fixedpoint.Rebase(base, &s.fxV, &s.fxLastFinish, &s.fxVRef)
	s.v = s.scale.Float(s.fxV)
	s.lastFinish = s.scale.Float(s.fxLastFinish)
	s.vRef = s.scale.Float(s.fxVRef)
	s.stats.Rebases++
}
