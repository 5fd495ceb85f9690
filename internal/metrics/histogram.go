// Log-bucketed latency histogram for the wall-clock runtime's dispatch
// latency accounting. The paper's interactive-performance evaluation (Figure
// 6(c)) is a latency distribution, not a mean; the runtime records every
// ready→dispatch and wakeup→dispatch interval per tenant, which rules out
// storing samples. A Histogram keeps its counts in two tiers: the 64 buckets
// of samples below 2^17 µs (131 ms) inline, so it embeds directly in
// per-tenant and per-shard state at 280 bytes, and the other 192 behind a
// pointer allocated on the first sample at or above 2^17 µs. Record therefore
// allocates at most once per histogram, and nothing grows after that; a
// runtime in steady state records no wait that long, so Record sits on the
// dispatch hot path at zero allocations (the dispatch benchmarks' 0 allocs/op
// gate covers it).
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
// multiples. 256 buckets cover every uint64 microsecond value; the first
// histLow of them hold exactly the values below 1<<histLowBits.
const (
	histSubBits = 2
	histSub     = 1 << histSubBits
	histLinear  = histSub
	histBuckets = 256
	histLowBits = 17
	histLow     = (histLowBits - histSubBits + 1) * histSub
)

// Histogram is a log-bucketed histogram of durations at microsecond
// resolution. The zero value is empty and ready to use. Its low tier is
// inline; its high tier is allocated by the first sample at or above 2^17 µs
// and shared by copies of the histogram, so callers embed it, never copy it,
// and provide their own synchronization (the runtime records and reads under
// its shard locks).
type Histogram struct {
	n    uint64
	max  uint64
	low  [histLow]uint32
	high *[histBuckets - histLow]uint32
}

// histBucket maps a microsecond value to its bucket index: e is the octave
// above the linear range, and values below histLinear fall out of the same
// expression with e = 0. Branch-free, it leaves Record cheap enough to inline.
func histBucket(v uint64) int {
	e := bits.Len64(v >> histSubBits)
	return e*histSub + int(v>>uint(max(e-1, 0))&(histSub-1))
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
// runtime already clamps) count as zero. It allocates only on the first
// sample at or above 2^17 µs.
func (h *Histogram) Record(d simtime.Duration) {
	v := uint64(max(d, 0))
	if i := histBucket(v); i < histLow {
		h.low[i]++
	} else {
		if h.high == nil {
			h.high = new([histBuckets - histLow]uint32)
		}
		h.high[i-histLow]++
	}
	h.n++
	h.max = max(h.max, v)
}

// count returns bucket i's count; a high tier never allocated counts zero.
func (h *Histogram) count(i int) uint32 {
	if i < histLow {
		return h.low[i]
	}
	if h.high == nil {
		return 0
	}
	return h.high[i-histLow]
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Max returns the largest recorded sample, 0 when empty.
func (h *Histogram) Max() simtime.Duration { return simtime.Duration(h.max) }

// Quantiles sets out[k] to an upper bound on the qs[k]-quantile of the
// recorded samples, for qs ascending in (0, 1]: the upper edge of the bucket
// holding the ⌈q·n⌉-th smallest sample, clamped to the observed maximum, and
// 0 for an empty histogram. The bound is within one sub-bucket (≤ 25%) of the
// true quantile. All of qs share one cumulative scan of the buckets, which
// ends in the low tier unless a sample reached the high one.
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
	for i := range histBuckets {
		cum += uint64(h.count(i))
		for cum >= target {
			out[k] = simtime.Duration(min(histUpper(i), h.max))
			if k++; k == len(qs) {
				return
			}
			target = rank(qs[k])
		}
	}
}
