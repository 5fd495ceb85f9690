package readjust

import (
	"fmt"
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
	oneCPU   bool                          // p ≤ 1: φ = w always, and byWeight keeps no order
	byWeight *runqueue.Heap[*sched.Thread] // heaviest first; a plain set when oneCPU
	sum, lo  float64                       // Σ w_i over runnable threads, a TwoSum pair
	capped   []*sched.Thread               // threads with φ != w after the last pass
	heavy    []*sched.Thread               // the p heaviest in order; empty when a change may have altered them
	maxPhi   float64                       // largest φ as of the last pass, raised by AddDeferred
	atMax    int                           // oneCPU: tracked threads weighing maxPhi; 0 while any are tracked means stale
	passes   int64                         // readjustment passes that changed some φ
	onPhi    func(*sched.Thread)           // hook invoked after a φ assignment
}

// NewTracker returns a tracker for p processors. If enabled is false the
// tracker still maintains the weight queue and Σw but φ_i always equals w_i.
func NewTracker(p int, enabled bool) *Tracker {
	k := &Tracker{cap: float64(p), enabled: enabled, oneCPU: p <= 1}
	if k.oneCPU {
		// No element precedes another, so Push and Remove never sift; the
		// heap is kept for its handle-backed Contains and Len, and for Each,
		// which MaxPhi's rescan and Validate walk.
		k.byWeight = runqueue.NewHeap(runqueue.SlotWeight, func(a, b *sched.Thread) bool { return false })
		return k
	}
	k.byWeight = runqueue.NewKeyedHeap(runqueue.SlotWeight, func(t *sched.Thread) float64 { return -t.Weight }, heavier)
	return k
}

// heavier is the weight queue's order: descending weight, then ascending ID.
func heavier(a, b *sched.Thread) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return a.ID < b.ID
}

// OnPhiChange registers a hook called every time the tracker assigns a
// thread's φ (including the initial φ = w on Add). Schedulers that maintain
// derived per-thread state — φ-class membership, stride's Stride1/φ — use it
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
// readjustment disabled it is the weight at the head of the queue. On one
// processor it is always exact: the heaviest weight, found again by a scan of
// the set when the last thread that carried it has left.
func (k *Tracker) MaxPhi() float64 {
	if k.oneCPU && k.atMax == 0 {
		k.maxPhi = 0
		k.byWeight.Each(func(t *sched.Thread) bool {
			k.raiseMax(t.Weight)
			return true
		})
	}
	return k.maxPhi
}

// raiseMax folds a tracked weight into the one-processor maximum and its count.
// maxPhi only ever bounds the set from above, so a weight above a stale
// maximum is the new maximum, and one equal to it is again a holder.
func (k *Tracker) raiseMax(w float64) {
	if w > k.maxPhi {
		k.maxPhi, k.atMax = w, 1
	} else if w == k.maxPhi {
		k.atMax++
	}
}

// Add starts tracking t (which must not already be tracked) and readjusts.
// It reports whether any φ changed. The φ hook always fires for t so that
// derived caches (stride's Stride1/φ) are primed even when φ == w.
func (k *Tracker) Add(t *sched.Thread) bool {
	k.AddDeferred(t)
	return k.Readjust()
}

// AddDeferred starts tracking t like Add but defers the readjustment pass:
// batch admission (core's AddBatch) inserts every thread of a wakeup batch
// first and then runs a single Readjust for the whole batch, since φ values
// are a pure function of the final runnable set. φ starts at the requested
// weight and the hook fires unconditionally so derived caches (stride's
// Stride1/φ) are primed, exactly as Add does.
func (k *Tracker) AddDeferred(t *sched.Thread) {
	k.setPhi(t, t.Weight, true)
	k.sum, k.lo = twoSum(k.sum, k.lo, t.Weight)
	if k.oneCPU {
		k.raiseMax(t.Weight)
	} else {
		k.maxPhi = max(k.maxPhi, t.Weight)
		if n := len(k.heavy); n > 0 && heavier(t, k.heavy[n-1]) {
			k.heavy = k.heavy[:0] // t enters the heaviest prefix
		}
	}
	k.byWeight.Push(t)
}

// Remove stops tracking t and readjusts. It reports whether any φ changed.
func (k *Tracker) Remove(t *sched.Thread) bool {
	if !k.byWeight.Remove(t) {
		return false
	}
	k.sum, k.lo = twoSum(k.sum, k.lo, -t.Weight)
	if k.byWeight.Len() == 0 {
		// Σw is kept by additions alone; an idle period must not carry the
		// float residue of the churn before it into the next feasibility test.
		k.sum, k.lo = 0, 0
	}
	if k.oneCPU {
		if t.Weight == k.maxPhi {
			k.atMax--
		}
		return false // φ = w throughout: nothing was capped, nothing is
	}
	if n := len(k.heavy); n > 0 && !heavier(k.heavy[n-1], t) {
		k.heavy = k.heavy[:0] // t leaves the heaviest prefix
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
	k.sum, k.lo = twoSum(k.sum, k.lo, w)
	k.sum, k.lo = twoSum(k.sum, k.lo, -t.Weight)
	if k.oneCPU {
		if t.Weight == k.maxPhi {
			k.atMax--
		}
		k.raiseMax(w)
	}
	t.Weight = w
	k.heavy = k.heavy[:0]
	k.setPhi(t, w, true)
	k.byWeight.Fix(t)
	k.Readjust()
	return true
}

// Validate checks the weight queue's structural invariants, a kept heaviest
// prefix against a fresh scan and, on one processor, the maximum's
// bookkeeping: no tracked weight above maxPhi and atMax threads at it.
func (k *Tracker) Validate() error {
	if err := k.byWeight.Validate(); err != nil {
		return err
	}
	if !k.oneCPU {
		if len(k.heavy) > 0 {
			if fresh := k.byWeight.AppendKSmallest(nil, int(k.cap)); !slices.Equal(k.heavy, fresh) {
				return fmt.Errorf("readjust: kept heaviest prefix %v, the weight queue's is %v", k.heavy, fresh)
			}
		}
		return nil
	}
	at := 0
	var err error
	k.byWeight.Each(func(t *sched.Thread) bool {
		if t.Weight > k.maxPhi {
			err = fmt.Errorf("readjust: %v weighs %g, above the recorded maximum %g", t, t.Weight, k.maxPhi)
			return false
		}
		if t.Weight == k.maxPhi {
			at++
		}
		return true
	})
	if err == nil && at != k.atMax {
		err = fmt.Errorf("readjust: %d threads weigh the maximum %g, %d recorded", at, k.maxPhi, k.atMax)
	}
	return err
}

// Readjust recomputes φ for the tracked set: the weight readjustment
// algorithm of Figure 2 operating directly on the weight queue, so that only
// the heaviest p-1 threads are inspected. It reports whether any φ changed.
func (k *Tracker) Readjust() bool {
	if k.oneCPU {
		return false // every weight is feasible on one processor (§2.1)
	}
	n, p := k.byWeight.Len(), int(k.cap)
	head, _ := k.byWeight.Min()
	changed := false
	switch {
	case n == 0:
		k.maxPhi = 0 // and nothing is capped: Remove took the last one out
	case !k.enabled, n > p && len(k.capped) == 0 && !(k.cap > 1 && head.Weight*k.cap > k.sum+k.lo):
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
		// Figure 2 reads only the p heaviest: capPrefix caps at most p − 1
		// (§2.1). The prefix is scanned again only when a change emptied it
		// (AddDeferred, Remove, UpdateWeight): an arrival or departure behind
		// it leaves the p heaviest what they were, however n moved around p
		// in between. Its storage is reused, so the blocking/wakeup path
		// stays allocation-free.
		if len(k.heavy) == 0 {
			k.heavy = k.byWeight.AppendKSmallest(k.heavy, p)
		}
		heavy := k.heavy
		ncap, rest := capPrefix(len(heavy), func(i int) float64 { return heavy[i].Weight }, k.sum, k.lo, k.cap)
		// Threads the last pass capped and this one does not return to
		// φ = w; the ones still capped go straight to their new φ.
		for _, t := range k.capped {
			if !slices.Contains(heavy[:ncap], t) {
				changed = k.setPhi(t, t.Weight, false) || changed
			}
		}
		k.capped = k.capped[:0]
		// The heaviest uncapped thread is heavy[ncap] (ncap < p < n).
		k.maxPhi = heavy[ncap].Weight
		backfill(ncap, rest, k.cap, func(j int, phi float64) {
			changed = k.setPhi(heavy[j], phi, false) || changed
			k.capped = append(k.capped, heavy[j])
			k.maxPhi = max(k.maxPhi, phi)
		})
	}
	if changed {
		k.passes++
	}
	return changed
}
