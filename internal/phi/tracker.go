// Package phi maintains instantaneous weights (φ values) for a runnable set.
//
// The paper's weight readjustment algorithm (§2.1) is deliberately decoupled
// from any particular scheduling policy: "our weight readjustment algorithm
// can be employed with most existing GPS-based scheduling algorithms". This
// package is that decoupling. It owns the weight queue (the first of the
// three queues in the kernel implementation, §3.1) and recomputes φ
// for the runnable set whenever it changes. SFS (internal/core, as the
// default core.PhiSource) and the GPS-tag kernel behind SFQ, BVT and stride
// (internal/vtq) each hold a Tracker; SFQ and friends can disable it to
// reproduce the unfairness the paper demonstrates in Examples 1 and 2.
//
// # Cost model
//
// Figure 2 reads three things from the weight queue — the at most p − 1
// heaviest threads, Σw and, when n ≤ p, the lightest weight — and never an
// order over the rest, so the queue is a heap on (weight desc, ID asc):
// O(log n) per arrival, departure and weight change. A readjustment pass looks
// at the heap's head first and returns in O(1) when the heaviest thread is
// feasible and nothing was capped; otherwise it takes the ≤ p heaviest in
// exact order (O(p log p)) and runs Figure 2 over that prefix, or, with n ≤ p,
// sets all n threads to the lightest weight. A pass computes each thread's
// final φ before assigning it, so the φ hook fires once per thread whose φ
// changed and not at all for a thread that stays capped at the same value.
package phi

import (
	"math"
	"slices"

	"sfsched/internal/runqueue"
	"sfsched/internal/sched"
)

// Tracker owns the weight queue of runnable threads and their φ values. Not
// safe for concurrent use.
type Tracker struct {
	cap      float64 // processor count, as the float Figure 2 divides by
	enabled  bool
	byWeight *runqueue.Heap[*sched.Thread] // heaviest first
	sum      float64                       // Σ w_i over runnable threads
	capped   []*sched.Thread               // threads with φ != w after the last pass
	heavy    []*sched.Thread               // scratch for the heaviest-prefix scan
	maxPhi   float64                       // largest φ as of the last pass, raised by AddDeferred
	passes   int64                         // readjustment passes that changed some φ
	onPhi    func(*sched.Thread)           // hook invoked after a φ assignment
}

// NewTracker returns a tracker for p processors. If enabled is false the
// tracker still maintains the weight queue and Σw but φ_i always equals w_i.
func NewTracker(p int, enabled bool) *Tracker {
	return &Tracker{
		cap:     float64(p),
		enabled: enabled,
		byWeight: runqueue.NewKeyedHeap(runqueue.SlotWeight,
			func(t *sched.Thread) float64 { return -t.Weight },
			func(a, b *sched.Thread) bool {
				if a.Weight != b.Weight {
					return a.Weight > b.Weight
				}
				return a.ID < b.ID
			}),
	}
}

// OnPhiChange registers a hook called every time the tracker assigns a
// thread's φ (including the initial φ = w on Add). Schedulers that maintain
// derived per-thread state — stored surpluses, fixed-point φ caches — use it
// to update incrementally instead of sweeping the whole runnable set.
func (k *Tracker) OnPhiChange(fn func(*sched.Thread)) { k.onPhi = fn }

// setPhi assigns t's φ and fires the hook if the value changed (or force is
// set, for the initial assignment).
func (k *Tracker) setPhi(t *sched.Thread, phi float64, force bool) bool {
	if t.Phi == phi && !force {
		return false
	}
	changed := t.Phi != phi
	t.Phi = phi
	if k.onPhi != nil {
		k.onPhi(t)
	}
	return changed
}

// Enabled reports whether readjustment is active.
func (k *Tracker) Enabled() bool { return k.enabled }

// Len returns the number of tracked (runnable) threads.
func (k *Tracker) Len() int { return k.byWeight.Len() }

// Sum returns the total requested weight of the runnable set.
func (k *Tracker) Sum() float64 { return k.sum }

// Passes returns how many readjustment passes changed at least one φ.
func (k *Tracker) Passes() int64 { return k.passes }

// MaxPhi returns the largest instantaneous weight in the tracked set (0 when
// it is empty) — the φ_max of the exact scheduler's drift-bounded pick, which
// prunes by it and never decides by it. A capped thread runs at φ < w, often
// far below (one thread holding half the total weight on p CPUs runs at a
// third of it for p = 4), so this is not the heaviest requested weight: it is
// the larger of the capped threads' φ and the heaviest uncapped weight, which
// every pass records. Between an AddDeferred and its Readjust the result is
// still an upper bound (the new thread's weight is folded in). With
// readjustment disabled it is the weight at the head of the queue.
func (k *Tracker) MaxPhi() float64 { return k.maxPhi }

// Add starts tracking t (which must not already be tracked) and readjusts.
// It reports whether any φ changed. The φ hook always fires for t so that
// derived caches (FxPhi) are primed even when φ == w.
func (k *Tracker) Add(t *sched.Thread) bool {
	k.AddDeferred(t)
	return k.Readjust()
}

// AddDeferred starts tracking t like Add but defers the readjustment pass:
// batch admission (core's AddBatch) inserts every thread of a wakeup batch
// first and then runs a single Readjust for the whole batch, since φ values
// are a pure function of the final runnable set. φ starts at the requested
// weight and the hook fires unconditionally so derived caches (FxPhi) are
// primed, exactly as Add does.
func (k *Tracker) AddDeferred(t *sched.Thread) {
	k.setPhi(t, t.Weight, true)
	k.sum += t.Weight
	k.maxPhi = max(k.maxPhi, t.Weight)
	k.byWeight.Push(t)
}

// Remove stops tracking t and readjusts. It reports whether any φ changed.
func (k *Tracker) Remove(t *sched.Thread) bool {
	if !k.byWeight.Remove(t) {
		return false
	}
	k.sum -= t.Weight
	if k.byWeight.Len() == 0 {
		// Σw is kept by += and −= alone; an idle period must not carry the
		// float residue of the churn before it into the next feasibility test.
		k.sum = 0
	}
	changed := false
	if i := slices.Index(k.capped, t); i >= 0 {
		k.capped = slices.Delete(k.capped, i, i+1)
		changed = k.setPhi(t, t.Weight, false)
	}
	return k.Readjust() || changed
}

// UpdateWeight changes a tracked thread's requested weight and readjusts. It
// reports whether any φ changed — true for a tracked thread, whose own φ
// starts from the new weight; false, touching nothing, for an untracked one.
// The φ hook fires for t unconditionally: a weight change repositions t in
// any queue that tie-breaks on weight even when φ is numerically unchanged.
func (k *Tracker) UpdateWeight(t *sched.Thread, w float64) bool {
	if !k.byWeight.Contains(t) {
		return false
	}
	k.sum += w - t.Weight
	t.Weight = w
	k.setPhi(t, w, true)
	k.byWeight.Fix(t)
	k.Readjust()
	return true
}

// Validate checks the weight queue's structural invariants.
func (k *Tracker) Validate() error { return k.byWeight.Validate() }

// Readjust recomputes φ for the tracked set: the weight readjustment
// algorithm of Figure 2 operating directly on the weight queue, so that only
// the heaviest p-1 threads are inspected. It reports whether any φ changed.
func (k *Tracker) Readjust() bool {
	n, p := k.byWeight.Len(), int(k.cap)
	head, _ := k.byWeight.Min()
	changed := false
	switch {
	case n == 0:
		k.maxPhi = 0 // and nothing is capped: Remove took the last one out
	case !k.enabled, n > p && len(k.capped) == 0 && !(k.cap > 1 && head.Weight*k.cap > k.sum):
		// Nothing to do: readjustment is off, or the heaviest thread is
		// feasible, so every thread is (§2.1), and no earlier pass left a
		// cap to lift.
		k.maxPhi = head.Weight
	case n <= p:
		// Every thread receives a full processor under GMS, so their
		// service rates — and hence instantaneous weights — are equal.
		// Use the group minimum so at least one weight is unchanged.
		min := head.Weight
		for i := 1; i < n; i++ {
			min = math.Min(min, k.byWeight.At(i).Weight)
		}
		k.capped = k.capped[:0]
		for i := 0; i < n; i++ {
			t := k.byWeight.At(i)
			changed = k.setPhi(t, min, false) || changed
			if t.Weight != min {
				k.capped = append(k.capped, t)
			}
		}
		k.maxPhi = min
	default:
		// At most ceil(cap)-1 threads can violate the feasibility
		// constraint (§2.1), so inspect only that many of the heaviest.
		// Capping is possible only while the remaining capacity exceeds one
		// CPU. The prefix scratch is reused across passes to keep the
		// blocking/wakeup path allocation-free.
		k.heavy = k.byWeight.AppendKSmallest(k.heavy[:0], p)
		heavy, sum, ncap := k.heavy, k.sum, 0
		for i, t := range heavy {
			rem := k.cap - float64(i)
			if rem > 1 && t.Weight*rem > sum {
				ncap++
				sum -= t.Weight
				continue
			}
			break
		}
		// Threads the last pass capped and this one does not return to
		// φ = w; the ones still capped go straight to their new φ.
		for _, t := range k.capped {
			if !slices.Contains(heavy[:ncap], t) {
				changed = k.setPhi(t, t.Weight, false) || changed
			}
		}
		k.capped = k.capped[:0]
		// sum now holds the total weight of uncapped threads, the heaviest
		// of which is heavy[ncap] (ncap < p < n). Unroll Figure 2's
		// backtracking: the i-th capped thread (1-based) receives
		// φ_i = (Σ of adjusted weights below it) / (cap − i).
		k.maxPhi = heavy[ncap].Weight
		suffix := sum
		for j := ncap - 1; j >= 0; j-- {
			phi := suffix / (k.cap - float64(j) - 1)
			changed = k.setPhi(heavy[j], phi, false) || changed
			k.capped = append(k.capped, heavy[j])
			k.maxPhi = max(k.maxPhi, phi)
			suffix += phi
		}
	}
	if changed {
		k.passes++
	}
	return changed
}
