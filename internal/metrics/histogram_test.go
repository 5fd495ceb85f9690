package metrics

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"sfsched/internal/simtime"
)

// TestHistogramBucketGeometry checks the bucket map and its inverse: every
// value lands in a bucket whose upper edge is ≥ the value and within the
// documented 25% relative error.
func TestHistogramBucketGeometry(t *testing.T) {
	check := func(v uint64) {
		t.Helper()
		idx := histBucket(v)
		if ref := refBucket(v); idx != ref {
			t.Fatalf("value %d maps to bucket %d, reference %d", v, idx, ref)
		}
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("value %d maps to bucket %d out of range", v, idx)
		}
		up := histUpper(idx)
		if up < v {
			t.Fatalf("value %d in bucket %d with upper edge %d < value", v, idx, up)
		}
		if v >= histLinear && float64(up-v) > 0.25*float64(v) {
			t.Fatalf("value %d bucket upper edge %d overestimates by more than 25%%", v, up)
		}
		// Upper edges are the largest member of their bucket.
		if histBucket(up) != idx {
			t.Fatalf("upper edge %d of bucket %d maps to bucket %d", up, idx, histBucket(up))
		}
		if up < math.MaxUint64 && histBucket(up+1) == idx {
			t.Fatalf("bucket %d also holds %d beyond its upper edge %d", idx, up+1, up)
		}
	}
	for v := uint64(0); v < 4096; v++ {
		check(v)
	}
	for e := 12; e < 64; e++ {
		check(1 << e)
		check(1<<e - 1)
		check(1<<e + 1<<(e-1))
	}
	check(math.MaxUint64)
	// Buckets are monotone: larger values never map to smaller buckets.
	prev := -1
	for e := 0; e < 64; e++ {
		if b := histBucket(1 << e); b < prev {
			t.Fatalf("bucket order broken at 2^%d: %d < %d", e, b, prev)
		} else {
			prev = b
		}
	}
}

// quantileOf reads one quantile through Quantiles.
func quantileOf(h *Histogram, q float64) simtime.Duration {
	var out [1]simtime.Duration
	h.Quantiles([]float64{q}, out[:])
	return out[0]
}

// TestHistogramQuantile compares reported quantiles against exact ones on a
// random sample: never below, and within the 25% relative bound.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if quantileOf(&h, 0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	rng := rand.New(rand.NewSource(7))
	var samples []uint64
	for i := 0; i < 20000; i++ {
		v := uint64(rng.ExpFloat64() * 50000) // long-tailed, like latencies
		samples = append(samples, v)
		h.Record(simtime.Duration(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if h.Count() != uint64(len(samples)) {
		t.Fatalf("count %d, want %d", h.Count(), len(samples))
	}
	if uint64(h.Max()) != samples[len(samples)-1] {
		t.Fatalf("max %d, want %d", h.Max(), samples[len(samples)-1])
	}
	qs := []float64{0.01, 0.5, 0.95, 0.99, 1}
	got := make([]simtime.Duration, len(qs))
	h.Quantiles(qs, got)
	for k, q := range qs {
		idx := int(math.Ceil(q*float64(len(samples)))) - 1
		exact := samples[idx]
		if uint64(got[k]) < exact {
			t.Errorf("q=%g: reported %d below exact %d", q, got[k], exact)
		}
		if exact >= histLinear && float64(uint64(got[k])-exact) > 0.25*float64(exact) {
			t.Errorf("q=%g: reported %d overestimates exact %d by more than 25%%", q, got[k], exact)
		}
	}
}

// refBucket is the bucket map written with the linear range as its own case:
// histBucket's branch-free form must agree with it on every value.
func refBucket(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	e := bits.Len64(v)
	sub := int((v >> (e - histSubBits - 1)) & (histSub - 1))
	return (e-histSubBits)*histSub + sub
}

// flatHist is the reference the two tiers must match bit for bit: the
// histogram as one flat array of all 256 buckets over refBucket, as it was
// kept before the high tier moved behind a pointer.
type flatHist struct {
	n, max uint64
	counts [histBuckets]uint32
}

func (f *flatHist) record(d simtime.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	f.counts[refBucket(v)]++
	f.n++
	f.max = max(f.max, v)
}

// quantile is the per-q reference scan Quantiles must match: the upper edge
// of the bucket holding the ⌈q·n⌉-th smallest sample (at least the first, at
// most the n-th), clamped to max; 0 when empty.
func (f *flatHist) quantile(q float64) simtime.Duration {
	if f.n == 0 {
		return 0
	}
	target := uint64(q * float64(f.n))
	if float64(target) < q*float64(f.n) || target == 0 {
		target++
	}
	if target > f.n {
		target = f.n
	}
	var cum uint64
	for i := range f.counts {
		if cum += uint64(f.counts[i]); cum >= target {
			if up := histUpper(i); up < f.max {
				return simtime.Duration(up)
			}
			return simtime.Duration(f.max)
		}
	}
	panic("cumulative count never reached n")
}

// TestHistogramQuantiles is the one-scan property: on seeded random
// histograms (empty and single-sample ones included) and random ascending q
// lists (duplicates and q = 1 included), every Quantiles output equals the
// flat reference's per-q scan.
func TestHistogramQuantiles(t *testing.T) {
	// The clamp: a lone sample of 1000 sits in the bucket [896, 1023].
	var one Histogram
	one.Record(1000)
	out := make([]simtime.Duration, 3)
	one.Quantiles([]float64{0.5, 1, 1}, out)
	if histUpper(histBucket(1000)) <= 1000 || out[0] != 1000 || out[1] != 1000 || out[2] != 1000 {
		t.Fatalf("single sample 1000: %v, want every quantile clamped to max 1000", out)
	}
	rng := rand.New(rand.NewSource(25))
	fixed := []float64{0.01, 0.25, 0.5, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for iter := 0; iter < 500; iter++ {
		var h Histogram
		var ref flatHist
		n := rng.Intn(400)
		switch iter % 5 {
		case 0:
			n = 0
		case 1:
			n = 1
		}
		scale := math.Pow(10, float64(rng.Intn(10)))
		for i := 0; i < n; i++ {
			d := simtime.Duration(rng.ExpFloat64() * scale)
			h.Record(d)
			ref.record(d)
		}
		var qs []float64
		for m := 1 + rng.Intn(6); len(qs) < m; {
			if rng.Intn(2) == 0 {
				qs = append(qs, fixed[rng.Intn(len(fixed))])
			} else {
				qs = append(qs, 1-rng.Float64()) // (0, 1]
			}
		}
		if iter%3 == 0 {
			qs = append(qs, qs[0], 1) // a duplicate, and q = 1
		}
		sort.Float64s(qs)
		got := make([]simtime.Duration, len(qs))
		h.Quantiles(qs, got)
		for k, q := range qs {
			if want := ref.quantile(q); got[k] != want {
				t.Fatalf("iter %d, n %d, qs %v: q=%g got %v, reference %v", iter, n, qs, q, got[k], want)
			}
		}
	}
}

// TestHistogramClampsNegativeSamples: a negative sample clamps to zero rather
// than corrupting a bucket.
func TestHistogramClampsNegativeSamples(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Count() != 1 || quantileOf(&h, 1) != 0 {
		t.Fatalf("negative sample mishandled: count %d, q1 %v", h.Count(), quantileOf(&h, 1))
	}
}

// FuzzHistogramTiers is the differential for the two tiers: for any sample
// stream, Count, Max and the quantiles the runtime reports equal, bit for bit,
// those of the flat 256-bucket reference, and the high tier exists exactly
// when a sample reached 2^17 µs. The input is a stream of zigzag varints, one
// sample each; the checked-in seeds cover negatives, 0, the last linear
// bucket (3) and the first log one (4), the tier boundary 2^17−1 | 2^17 and
// the largest durations.
func FuzzHistogramTiers(f *testing.F) {
	qs := []float64{0.5, 0.95, 0.99, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		var ref flatHist
		for len(data) > 0 {
			v, n := binary.Varint(data)
			if n <= 0 {
				break
			}
			data = data[n:]
			h.Record(simtime.Duration(v))
			ref.record(simtime.Duration(v))
			if h.Count() != ref.n || uint64(h.Max()) != ref.max {
				t.Fatalf("after %d: count %d max %d, reference %d and %d", v, h.Count(), h.Max(), ref.n, ref.max)
			}
			if high := h.high != nil; high != (ref.max >= 1<<histLowBits) {
				t.Fatalf("after %d: high tier allocated %v with max %d µs, want it exactly once a sample reached 2^%d",
					v, high, ref.max, histLowBits)
			}
		}
		got := make([]simtime.Duration, len(qs))
		h.Quantiles(qs, got)
		for k, q := range qs {
			if want := ref.quantile(q); got[k] != want {
				t.Fatalf("%d samples, max %d: q=%g got %d, reference %d", ref.n, ref.max, q, got[k], want)
			}
		}
	})
}

// TestHistogramRecordAllocationFree pins the hot-path guarantee the dispatch
// benchmarks rely on: Record and Quantiles allocate nothing below 2^17 µs, the
// first sample at or above it allocates the high tier once, and nothing
// allocates after that.
func TestHistogramRecordAllocationFree(t *testing.T) {
	h := new(Histogram)
	qs := []float64{0.5, 0.95, 0.99}
	out := make([]simtime.Duration, len(qs))
	// allocs counts what a fresh histogram allocates over one stream.
	allocs := func(stream ...simtime.Duration) float64 {
		return testing.AllocsPerRun(100, func() {
			*h = Histogram{}
			for _, d := range stream {
				h.Record(d)
				h.Quantiles(qs, out)
			}
		})
	}
	low := []simtime.Duration{-1, 0, 3, 4, 12345, 1<<histLowBits - 1}
	if n := allocs(low...); n != 0 {
		t.Fatalf("samples below 2^%d µs allocate %.0f times, want 0", histLowBits, n)
	}
	if n := allocs(append(low, 1<<histLowBits)...); n != 1 {
		t.Fatalf("the first sample at 2^%d µs allocates %.0f times, want 1 (the high tier)", histLowBits, n)
	}
	if n := allocs(append(low, 1<<histLowBits, 1<<histLowBits, 1, math.MaxInt64)...); n != 1 {
		t.Fatalf("a stream reaching the high tier allocates %.0f times, want 1: samples after the first high one allocate", n)
	}
}
