// Log-bucketed latency histogram for the wall-clock runtime's dispatch
// latency accounting. The paper's interactive-performance evaluation (Figure
// 6(c)) is a latency distribution, not a mean; the runtime records every
// ready→dispatch and wakeup→dispatch interval per tenant, which rules out
// storing samples. A Histogram is a fixed-size value type — no pointers, no
// growth — so it embeds directly in per-tenant and per-shard state and its
// Record sits on the dispatch hot path at zero allocations (the dispatch
// benchmarks' 0 allocs/op gate covers it).
package metrics

import (
	"math/bits"

	"sfsched/internal/simtime"
)

// Histogram bucket geometry: values below histLinear count exactly; above,
// each power-of-two octave splits into histSub sub-buckets, so a reported
// quantile overestimates the true one by at most 1/histSub of its magnitude
// (25%) — coarse-grained by design, since the latency comparisons of
// interest (preemption vs a full quantum, SFS vs time sharing) differ by
// multiples. 256 buckets cover every uint64 microsecond value.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits
	histLinear  = histSub
	histBuckets = 256
)

// Histogram is an allocation-free log-bucketed histogram of durations at
// microsecond resolution. The zero value is empty and ready to use. It is a
// value type with no internal pointers; callers embed it and provide their
// own synchronization (the runtime records and reads under its shard locks).
type Histogram struct {
	n      uint64
	max    uint64
	counts [histBuckets]uint32
}

// histBucket maps a microsecond value to its bucket index.
func histBucket(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	e := bits.Len64(v) // position of the top bit, ≥ histSubBits+1
	sub := int((v >> (e - histSubBits - 1)) & (histSub - 1))
	return (e-histSubBits)*histSub + sub
}

// histUpper returns the largest microsecond value a bucket holds.
func histUpper(idx int) uint64 {
	if idx < histLinear {
		return uint64(idx)
	}
	e := idx/histSub + histSubBits
	sub := uint64(idx%histSub) + 1
	return 1<<(e-1) + sub<<(e-1-histSubBits) - 1
}

// Record adds one duration sample. Negative durations (a clock artifact the
// runtime already clamps) count as zero.
func (h *Histogram) Record(d simtime.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Max returns the largest recorded sample, 0 when empty.
func (h *Histogram) Max() simtime.Duration { return simtime.Duration(h.max) }

// Quantiles sets out[k] to an upper bound on the qs[k]-quantile of the
// recorded samples, for qs ascending in (0, 1]: the upper edge of the bucket
// holding the ⌈q·n⌉-th smallest sample, clamped to the observed maximum, and
// 0 for an empty histogram. The bound is within one sub-bucket (≤ 25%) of the
// true quantile. All of qs share one cumulative scan of the buckets.
func (h *Histogram) Quantiles(qs []float64, out []simtime.Duration) {
	if len(qs) == 0 {
		return
	}
	// rank is ⌈q·n⌉ kept within [1, n]; for n = 0 it is 0, met at bucket 0,
	// whose upper edge clamps to max = 0.
	rank := func(q float64) uint64 {
		target := uint64(q * float64(h.n))
		if float64(target) < q*float64(h.n) || target == 0 {
			target++
		}
		return min(target, h.n)
	}
	k, target := 0, rank(qs[0])
	var cum uint64
	for i := range h.counts {
		cum += uint64(h.counts[i])
		for cum >= target {
			out[k] = simtime.Duration(min(histUpper(i), h.max))
			if k++; k == len(qs) {
				return
			}
			target = rank(qs[k])
		}
	}
}

// Merge adds o's samples into h (shard-level histograms aggregate tenant
// recordings this way when a caller wants a machine-wide view).
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset empties the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }
