// Package readjust implements the paper's optimal weight readjustment
// algorithm (§2.1, Figure 2) and Generalized Multiprocessor Sharing (§2.2),
// the fluid schedule whose rates readjustment induces and SFS approximates.
//
// On a p-processor machine a weight assignment is feasible only if no thread
// requests more than 1/p of the total bandwidth (Equation 1): a single thread
// cannot consume more than one processor. The readjustment algorithm maps an
// infeasible assignment to the closest feasible one: threads that violate the
// constraint are capped so that their requested fraction becomes exactly 1/p
// of what remains, and every other weight is left untouched. At most p-1
// threads can violate the constraint, so the algorithm needs to inspect only
// the p-1 largest weights.
//
// Two conventions extend the paper's pseudocode to corner cases it leaves
// implicit:
//
//   - If the number of runnable threads n is at most p, every thread receives
//     a full processor under GMS regardless of weights, so their service
//     rates — and therefore their instantaneous weights — must be equal. We
//     assign each the smallest weight in the group (leaving at least one
//     weight unchanged, in keeping with the "nearest assignment" property).
//   - On a uniprocessor (p=1) every assignment is feasible and readjustment
//     is the identity.
//
// # One cap routine
//
// capPrefix (Figure 2's cap test) and backfill (its back-substitution) decide
// who is capped, and at what φ, for the Tracker, Weights and Rates alike. Σw
// is carried as a TwoSum pair (sum, lo): a running sum loses light weights
// beside a heavy one, and taking the heavy one out would then cap the next
// thread against nothing, at a negative φ. Where every partial sum is exact
// (integer weights) lo stays 0.
//
// # The tracker's cost model
//
// The readjustment is deliberately decoupled from any particular scheduling
// policy: "our weight readjustment algorithm can be employed with most
// existing GPS-based scheduling algorithms". The Tracker is that decoupling.
// It owns the weight queue (the first of the three queues in the kernel
// implementation, §3.1) and recomputes φ for the runnable set whenever it
// changes. SFS (internal/core, as the default core.PhiSource) and the GPS-tag
// kernel behind SFQ, BVT and stride (internal/vtq) each hold one; SFQ and
// friends can disable it to reproduce the unfairness the paper demonstrates
// in Examples 1 and 2.
//
// Figure 2 reads three things from the weight queue — the at most p − 1
// heaviest threads, Σw and, when n ≤ p, the lightest weight — and never an
// order over the rest, so the queue is a heap on (weight desc, ID asc):
// O(log n) per arrival, departure and weight change. A readjustment pass looks
// at the heap's head first and returns in O(1) when the heaviest thread is
// feasible and nothing was capped; otherwise it runs Figure 2 over the p
// heaviest in exact order, or, with n ≤ p, sets all n threads to the lightest
// weight. The prefix is kept between passes and taken again (O(p log p)) only
// after an arrival ahead of its last thread, the departure of one of its
// threads or a weight change: beside one infeasible thread, the arrivals and
// departures of the light ones leave it as it was. A pass computes each thread's
// final φ before assigning it, so the φ hook fires once per thread whose φ
// changed and not at all for a thread that stays capped at the same value.
//
// On one processor no weight is infeasible (wᵢ/Σw ≤ 1 always), so φ = w for
// every thread and nothing reads an order: a tracker built for p = 1 keeps its
// threads in an unordered set on the same handle — O(1) per arrival,
// departure and weight change, no sift — and a readjustment pass returns at
// once. MaxPhi stays exact there by counting the threads at the maximum; only
// a read after the last of them left rescans the set, O(n).
//
// # GMS
//
// GMS is GPS (Parekh & Gallager) lifted to p processors: threads are
// scheduled with infinitesimally small quanta so that, over any interval in
// which two threads are continuously runnable with fixed instantaneous
// weights, their service ratio equals the ratio of their instantaneous
// weights (Equation 2). Equivalently, each runnable thread receives service
// at the water-filling rate Rates computes: capped threads get exactly one
// CPU, everyone else shares the remaining capacity in proportion to their
// weights. The Fluid integrator advances that ideal allocation across the
// same lifecycle events the discrete machine sees; experiments run it
// alongside a real scheduler and use the per-thread difference A_i − A_i^GMS —
// the true surplus of Equation 3 — as the fairness metric. GMSLag gives the
// same lag for entities runnable throughout, without integrating.
package readjust

import (
	"fmt"
	"sort"
)

// validate panics on non-positive weights or processor counts; these are
// programmer errors (the scheduler rejects them at the API boundary).
func validate(w []float64, p int) {
	if p <= 0 {
		panic(fmt.Sprintf("readjust: non-positive processor count %d", p))
	}
	for i, x := range w {
		if x <= 0 {
			panic(fmt.Sprintf("readjust: non-positive weight %g at index %d", x, i))
		}
	}
}

// twoSum adds x to the pair (sum, lo) and returns the new pair: sum is the
// rounded running sum and lo accumulates what each addition's rounding lost
// (Knuth's TwoSum), so sum + lo keeps weights that sum alone rounded away.
func twoSum(sum, lo, x float64) (float64, float64) {
	s := sum + x
	b := s - sum
	return s, lo + ((sum - (s - b)) + (x - b))
}

// capPrefix is Figure 2's cap test. weight(i) is the i-th heaviest of n > p
// weights and (sum, lo) their total. It caps the i-th heaviest while
// w·(p − i) exceeds the weight left and more than one CPU remains, so at most
// p − 1 are capped, and returns how many were and the weight of the rest.
func capPrefix(n int, weight func(int) float64, sum, lo, p float64) (capped int, rest float64) {
	for ; capped < n; capped++ {
		w, rem := weight(capped), p-float64(capped)
		if !(rem > 1 && w*rem > sum+lo) {
			break
		}
		sum, lo = twoSum(sum, lo, -w)
	}
	return capped, sum + lo
}

// backfill is Figure 2's back-substitution, unrolled: from the lightest
// capped thread up, the j-th heaviest (0-based) receives
// φⱼ = rest/(p − j − 1), the adjusted weight below it over the CPUs left
// beside it, and rest grows by φⱼ.
func backfill(capped int, rest, p float64, set func(j int, phi float64)) {
	for j := capped - 1; j >= 0; j-- {
		phi := rest / (p - float64(j) - 1)
		set(j, phi)
		rest += phi
	}
}

// heaviestFirst returns the indices of weights in descending weight order and
// their total as a TwoSum pair.
func heaviestFirst(weights []float64) (idx []int, sum, lo float64) {
	idx = make([]int, len(weights))
	for i, w := range weights {
		idx[i] = i
		sum, lo = twoSum(sum, lo, w)
	}
	sort.Slice(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	return idx, sum, lo
}

// Weights returns the readjusted copy of weights (any order, order
// preserved) for p processors.
func Weights(weights []float64, p int) []float64 {
	validate(weights, p)
	out := append([]float64(nil), weights...)
	idx, sum, lo := heaviestFirst(weights)
	if n := len(weights); n <= p {
		for i := range out {
			out[i] = weights[idx[n-1]]
		}
		return out
	}
	capped, rest := capPrefix(len(idx), func(i int) float64 { return weights[idx[i]] }, sum, lo, float64(p))
	backfill(capped, rest, float64(p), func(j int, phi float64) { out[idx[j]] = phi })
	return out
}

// Filler runs water-filling passes with reusable scratch space, so callers
// that readjust on every runnable-set change (internal/hier) stay
// allocation-free in steady state. The zero value is ready to use; a Filler
// is not safe for concurrent use.
type Filler struct {
	pinned []bool
}

// Fill divides capacity among entities in proportion to weights, subject to
// per-entity caps: entities whose proportional share exceeds their cap are
// pinned at it and the remainder is re-divided among the rest. This is the
// general form of the readjustment algorithm — Figure 2 is the special case
// caps = 1 and capacity = p — and the rate computation of hierarchical GMS
// (internal/hier) at both levels of the tree. If the total cap is below
// capacity, the result sums to the total cap (the machine cannot be fully
// used). The rates are written into out (grown as needed, reused when
// capacity suffices), which is returned.
func (f *Filler) Fill(out, weights, caps []float64, capacity float64) []float64 {
	if len(weights) != len(caps) {
		panic("readjust: mismatched weights and caps")
	}
	validate(weights, 1)
	if cap(out) < len(weights) {
		out = make([]float64, len(weights))
	} else {
		out = out[:len(weights)]
		for i := range out {
			out[i] = 0
		}
	}
	if len(weights) == 0 {
		return out
	}
	var totalCap float64
	for i, c := range caps {
		if c < 0 {
			panic(fmt.Sprintf("readjust: negative cap %g at index %d", c, i))
		}
		totalCap += c
	}
	remaining := capacity
	if totalCap < remaining {
		remaining = totalCap
	}
	if cap(f.pinned) < len(weights) {
		f.pinned = make([]bool, len(weights))
	} else {
		f.pinned = f.pinned[:len(weights)]
		for i := range f.pinned {
			f.pinned[i] = false
		}
	}
	pinned := f.pinned
	for {
		var wsum float64
		for i, w := range weights {
			if !pinned[i] {
				wsum += w
			}
		}
		if wsum == 0 {
			return out
		}
		progress := false
		for i, w := range weights {
			if pinned[i] {
				continue
			}
			if r := w / wsum * remaining; r > caps[i] {
				out[i] = caps[i]
				pinned[i] = true
				remaining -= caps[i]
				progress = true
			}
		}
		if !progress {
			for i, w := range weights {
				if !pinned[i] {
					out[i] = w / wsum * remaining
				}
			}
			return out
		}
	}
}

// Rates returns the GMS (water-filling) service rate of each thread in
// CPUs, in [0, 1], for the given weights (any order, order preserved) on p
// processors. Capped threads receive exactly one CPU; the rest share the
// remaining processors in proportion to their unmodified weights. The rates
// are what the idealized GMS algorithm of §2.2 delivers to continuously
// runnable threads, and what Fluid integrates over time.
func Rates(weights []float64, p int) []float64 {
	validate(weights, p)
	n := len(weights)
	rates := make([]float64, n)
	if n <= p {
		for i := range rates {
			rates[i] = 1
		}
		return rates
	}
	idx, sum, lo := heaviestFirst(weights)
	capped, rest := capPrefix(n, func(i int) float64 { return weights[idx[i]] }, sum, lo, float64(p))
	rem := float64(p - capped)
	for i, j := range idx {
		if i < capped {
			rates[j] = 1
		} else {
			rates[j] = weights[j] / rest * rem
		}
	}
	return rates
}
