// Package phi maintains instantaneous weights (φ values) for a runnable set.
//
// The paper's weight readjustment algorithm (§2.1) is deliberately decoupled
// from any particular scheduling policy: "our weight readjustment algorithm
// can be employed with most existing GPS-based scheduling algorithms". This
// package is that decoupling. It owns the weight-sorted run queue (the first
// of the three queues in the kernel implementation, §3.1) and recomputes φ
// for the runnable set whenever it changes. SFS (internal/core, as the
// default core.PhiSource) and the GPS-tag kernel behind SFQ, BVT and stride
// (internal/vtq) each hold a Tracker; SFQ and friends can disable it to
// reproduce the unfairness the paper demonstrates in Examples 1 and 2.
package phi

import (
	"sfsched/internal/runqueue"
	"sfsched/internal/sched"
)

// Tracker owns the weight-sorted queue of runnable threads and their φ
// values. Not safe for concurrent use.
type Tracker struct {
	cap      float64 // processor count, as the float Figure 2 divides by
	enabled  bool
	byWeight *runqueue.List[*sched.Thread] // descending weight
	sum      float64                       // Σ w_i over runnable threads
	capped   []*sched.Thread               // threads with φ != w after the last pass
	heavy    []*sched.Thread               // scratch for the heaviest-prefix scan
	passes   int64                         // readjustment passes that changed some φ
	onPhi    func(*sched.Thread)           // hook invoked after a φ assignment
}

// NewTracker returns a tracker for p processors. If enabled is false the
// tracker still maintains the weight queue (schedulers use it for heuristics)
// but φ_i always equals w_i.
func NewTracker(p int, enabled bool) *Tracker {
	return &Tracker{
		cap:     float64(p),
		enabled: enabled,
		byWeight: runqueue.NewList(runqueue.SlotWeight, func(a, b *sched.Thread) bool {
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

// PhiSum returns the total instantaneous weight of the runnable set.
func (k *Tracker) PhiSum() float64 {
	var s float64
	k.byWeight.Each(func(t *sched.Thread) bool {
		s += t.Phi
		return true
	})
	return s
}

// Passes returns how many readjustment passes changed at least one φ.
func (k *Tracker) Passes() int64 { return k.passes }

// Contains reports whether t is tracked.
func (k *Tracker) Contains(t *sched.Thread) bool { return k.byWeight.Contains(t) }

// MaxPhi returns the largest instantaneous weight in the tracked set (0 when
// it is empty) — the φ_max of the exact scheduler's drift-bounded pick, which
// prunes by it and never decides by it. A capped thread runs at φ < w, often
// far below (one thread holding half the total weight on p CPUs runs at a
// third of it for p = 4), so this is not the heaviest requested weight: it is
// the larger of the capped threads' φ and the heaviest uncapped weight. The
// capped threads are the heaviest ones, so the walk from the head of the
// weight queue stops at the first uncapped thread, after at most p steps.
// Between an AddDeferred and its Readjust the result is still an upper bound
// (φ ≤ w for every thread behind the one the walk stopped at).
func (k *Tracker) MaxPhi() float64 {
	var m float64
	k.byWeight.Each(func(t *sched.Thread) bool {
		m = max(m, t.Phi)
		return t.Phi != t.Weight
	})
	return m
}

// Add starts tracking t (which must not already be tracked) and readjusts.
// It reports whether any φ changed. The φ hook always fires for t so that
// derived caches (FxPhi) are primed even when φ == w.
func (k *Tracker) Add(t *sched.Thread) bool {
	k.setPhi(t, t.Weight, true)
	k.sum += t.Weight
	k.byWeight.Insert(t)
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
	k.byWeight.Insert(t)
}

// Remove stops tracking t and readjusts. It reports whether any φ changed.
func (k *Tracker) Remove(t *sched.Thread) bool {
	if !k.byWeight.Remove(t) {
		return false
	}
	k.sum -= t.Weight
	changed := false
	for i, c := range k.capped {
		if c == t {
			k.capped = append(k.capped[:i], k.capped[i+1:]...)
			k.setPhi(t, t.Weight, false)
			changed = true
			break
		}
	}
	return k.Readjust() || changed
}

// UpdateWeight changes t's requested weight and readjusts. It reports
// whether any φ changed (always true: t's own φ starts from the new weight).
// The φ hook fires for t unconditionally: a weight change repositions t in
// any queue that tie-breaks on weight even when φ is numerically unchanged.
func (k *Tracker) UpdateWeight(t *sched.Thread, w float64) bool {
	k.sum += w - t.Weight
	t.Weight = w
	k.setPhi(t, w, true)
	k.byWeight.Fix(t)
	k.Readjust()
	return true
}

// EachReverse iterates threads from lightest to heaviest (the backwards scan
// of the weight queue used by the §3.2 heuristic).
func (k *Tracker) EachReverse(fn func(*sched.Thread) bool) { k.byWeight.EachReverse(fn) }

// Validate checks the weight queue's structural invariants.
func (k *Tracker) Validate() error { return k.byWeight.Validate() }

// Readjust recomputes φ for the tracked set: the weight readjustment
// algorithm of Figure 2 operating directly on the weight-sorted queue, so
// that only the heaviest p-1 threads are inspected. It reports whether any φ
// changed.
func (k *Tracker) Readjust() bool {
	if !k.enabled {
		return false
	}
	changed := false
	// Reset previously capped threads; still-infeasible ones are re-capped.
	for _, t := range k.capped {
		if k.setPhi(t, t.Weight, false) {
			changed = true
		}
	}
	k.capped = k.capped[:0]
	n := k.byWeight.Len()
	if n == 0 || k.cap <= 1 {
		// With at most one CPU's worth of capacity no thread can exceed
		// its cap, so every assignment is feasible.
		if changed {
			k.passes++
		}
		return changed
	}
	if float64(n) <= k.cap {
		// Every thread receives a full processor under GMS, so their
		// service rates — and hence instantaneous weights — are equal.
		// Use the group minimum so at least one weight is unchanged.
		tail, _ := k.byWeight.Tail()
		min := tail.Weight
		k.byWeight.Each(func(t *sched.Thread) bool {
			if k.setPhi(t, min, false) {
				changed = true
			}
			if t.Phi != t.Weight {
				k.capped = append(k.capped, t)
			}
			return true
		})
		if changed {
			k.passes++
		}
		return changed
	}
	// General case: at most ceil(cap)-1 threads can violate the
	// feasibility constraint (§2.1), so inspect only that many of the
	// heaviest. Capping is possible only while the remaining capacity
	// exceeds one CPU. The prefix scratch is reused across passes to keep
	// the blocking/wakeup path allocation-free.
	k.heavy = k.byWeight.AppendFirstN(k.heavy[:0], int(k.cap))
	heavy := k.heavy
	sum := k.sum
	capped := 0
	for i, t := range heavy {
		rem := k.cap - float64(i)
		if rem > 1 && t.Weight*rem > sum {
			capped++
			sum -= t.Weight
			continue
		}
		break
	}
	// sum now holds the total weight of uncapped threads. Unroll Figure
	// 2's backtracking: the i-th capped thread (1-based) receives
	// φ_i = (Σ of adjusted weights below it) / (cap − i).
	suffix := sum
	for j := capped - 1; j >= 0; j-- {
		phi := suffix / (k.cap - float64(j) - 1)
		if k.setPhi(heavy[j], phi, false) {
			changed = true
		}
		k.capped = append(k.capped, heavy[j])
		suffix += phi
	}
	if changed {
		k.passes++
	}
	return changed
}
