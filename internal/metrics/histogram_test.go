package metrics

import (
	"math"
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

// refQuantile is the per-q reference scan Quantiles must match: the upper
// edge of the bucket holding the ⌈q·n⌉-th smallest sample (at least the
// first, at most the n-th), clamped to max; 0 when empty.
func refQuantile(h *Histogram, q float64) simtime.Duration {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if float64(target) < q*float64(h.n) || target == 0 {
		target++
	}
	if target > h.n {
		target = h.n
	}
	var cum uint64
	for i := range h.counts {
		if cum += uint64(h.counts[i]); cum >= target {
			if up := histUpper(i); up < h.max {
				return simtime.Duration(up)
			}
			return simtime.Duration(h.max)
		}
	}
	panic("cumulative count never reached n")
}

// TestHistogramQuantiles is the one-scan property: on seeded random
// histograms (empty and single-sample ones included) and random ascending q
// lists (duplicates and q = 1 included), every Quantiles output equals the
// per-q reference scan.
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
		n := rng.Intn(400)
		switch iter % 5 {
		case 0:
			n = 0
		case 1:
			n = 1
		}
		scale := math.Pow(10, float64(rng.Intn(10)))
		for i := 0; i < n; i++ {
			h.Record(simtime.Duration(rng.ExpFloat64() * scale))
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
			if want := refQuantile(&h, q); got[k] != want {
				t.Fatalf("iter %d, n %d, qs %v: q=%g got %v, reference %v", iter, n, qs, q, got[k], want)
			}
		}
	}
}

// TestHistogramMergeReset: merging equals recording the union; reset empties.
func TestHistogramMergeReset(t *testing.T) {
	var a, b, both Histogram
	for i := 0; i < 1000; i++ {
		a.Record(simtime.Duration(i))
		both.Record(simtime.Duration(i))
	}
	for i := 1000; i < 1500; i++ {
		b.Record(simtime.Duration(i * 17))
		both.Record(simtime.Duration(i * 17))
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Max() != both.Max() {
		t.Fatalf("merge count/max %d/%v, want %d/%v", a.Count(), a.Max(), both.Count(), both.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if quantileOf(&a, q) != quantileOf(&both, q) {
			t.Fatalf("merge q=%g: %v, want %v", q, quantileOf(&a, q), quantileOf(&both, q))
		}
	}
	a.Reset()
	if a.Count() != 0 || quantileOf(&a, 0.5) != 0 {
		t.Fatal("reset did not empty the histogram")
	}
	// Negative samples clamp to zero rather than corrupting a bucket.
	a.Record(-5)
	if a.Count() != 1 || quantileOf(&a, 1) != 0 {
		t.Fatalf("negative sample mishandled: count %d, q1 %v", a.Count(), quantileOf(&a, 1))
	}
}

// TestHistogramRecordAllocationFree pins the hot-path guarantee the dispatch
// benchmarks rely on: Record and Quantiles allocate nothing.
func TestHistogramRecordAllocationFree(t *testing.T) {
	var h Histogram
	qs := []float64{0.5, 0.95, 0.99}
	out := make([]simtime.Duration, len(qs))
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(12345 * simtime.Microsecond)
		h.Quantiles(qs, out)
	}); n != 0 {
		t.Fatalf("Record/Quantiles allocate %.1f times per call, want 0", n)
	}
}
