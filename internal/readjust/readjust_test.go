package readjust

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"sfsched/internal/xrand"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestPaperExample1(t *testing.T) {
	// Example 1: weights 1:10 on a dual-processor — thread 2 requests
	// 10/11 of total bandwidth but can consume at most 1/2. The closest
	// feasible assignment is 1:1.
	got := Weights([]float64{1, 10}, 2)
	if !almostEq(got[0], 1) || !almostEq(got[1], 1) {
		t.Fatalf("Weights(1:10, p=2) = %v, want [1 1]", got)
	}
}

func TestPaperFig4Weights(t *testing.T) {
	// The Figure 4 middle phase: weights 1:10:1 on two CPUs readjust to
	// 1:2:1 (shares 1/4 : 1/2 : 1/4).
	got := Weights([]float64{1, 10, 1}, 2)
	want := []float64{1, 2, 1}
	for i := range want {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("Weights(1:10:1, p=2) = %v, want %v", got, want)
		}
	}
}

func TestBlockingMakesInfeasible(t *testing.T) {
	// §1.2: "a feasible weight assignment of 1:1:2 on a dual-processor
	// server becomes infeasible when one of the threads with weight 1
	// blocks."
	if !IsFeasible([]float64{1, 1, 2}, 2) {
		t.Fatal("1:1:2 should be feasible on p=2")
	}
	if IsFeasible([]float64{1, 2}, 2) {
		t.Fatal("1:2 should be infeasible on p=2")
	}
	got := Weights([]float64{1, 2}, 2)
	if !almostEq(got[0], 1) || !almostEq(got[1], 1) {
		t.Fatalf("Weights(1:2, p=2) = %v, want [1 1]", got)
	}
}

func TestUniprocessorIdentity(t *testing.T) {
	w := []float64{5, 1, 100, 0.5}
	got := Weights(w, 1)
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("p=1 must be identity: %v -> %v", w, got)
		}
	}
	if !IsFeasible(w, 1) {
		t.Fatal("everything is feasible on a uniprocessor")
	}
}

func TestCascadedCaps(t *testing.T) {
	// {100, 4, 2, 1} on p=3: both 100 and 4 violate; Figure 2 yields
	// {3, 3, 2, 1} (4 becomes (2+1)/1, then 100 becomes (3+2+1)/2).
	got := Weights([]float64{100, 4, 2, 1}, 3)
	want := []float64{3, 3, 2, 1}
	for i := range want {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestOrderPreserved(t *testing.T) {
	// Weights are supplied unsorted; results must line up positionally.
	got := Weights([]float64{1, 10, 2}, 2)
	// 10 violates: capped to (1+2)/(2-1) = 3.
	want := []float64{1, 3, 2}
	for i := range want {
		if !almostEq(got[i], want[i]) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFewThreadsThanCPUs(t *testing.T) {
	// n <= p: every thread gets a full CPU; instantaneous weights must be
	// equal (the group minimum).
	got := Weights([]float64{7, 3}, 4)
	if !almostEq(got[0], 3) || !almostEq(got[1], 3) {
		t.Fatalf("got %v, want [3 3]", got)
	}
	// Single thread: unchanged.
	got = Weights([]float64{42}, 4)
	if got[0] != 42 {
		t.Fatalf("single thread changed: %v", got)
	}
}

func TestSortedDescChangedCount(t *testing.T) {
	w := []float64{10, 1}
	if n := SortedDesc(w, 2); n != 1 {
		t.Fatalf("changed = %d, want 1", n)
	}
	w = []float64{1, 1, 1}
	if n := SortedDesc(w, 2); n != 0 {
		t.Fatalf("changed = %d, want 0", n)
	}
}

func TestNumCapped(t *testing.T) {
	cases := []struct {
		w    []float64
		p    int
		want int
	}{
		{[]float64{10, 1}, 2, 1},
		{[]float64{100, 4, 2, 1}, 3, 2},
		{[]float64{1, 1, 1, 1}, 2, 0},
		{[]float64{5, 1}, 1, 0},
	}
	for _, c := range cases {
		sorted := append([]float64(nil), c.w...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		if got := NumCapped(sorted, c.p); got != c.want {
			t.Errorf("NumCapped(%v, %d) = %d, want %d", c.w, c.p, got, c.want)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	for _, bad := range [][]float64{{0}, {-1}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Weights(%v) did not panic", bad)
				}
			}()
			Weights(bad, 2)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("p=0 did not panic")
			}
		}()
		Weights([]float64{1}, 0)
	}()
}

// randWeights builds a reproducible random weight vector.
func randWeights(r *xrand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + r.Float64()*float64(uint64(1)<<uint(r.Intn(12)))
	}
	return w
}

func TestPropertyOutputFeasible(t *testing.T) {
	// The output of readjustment always satisfies the feasibility
	// constraint.
	r := xrand.New(1)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(40)
		p := 1 + r.Intn(8)
		w := randWeights(r, n)
		got := Weights(w, p)
		sorted := append([]float64(nil), got...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		if n > p {
			var sum float64
			for _, x := range sorted {
				sum += x
			}
			if sorted[0]*float64(p) > sum*(1+1e-9) {
				t.Fatalf("trial %d: infeasible output %v for p=%d (w=%v)", trial, got, p, w)
			}
		} else {
			for i := 1; i < n; i++ {
				if !almostEq(sorted[i], sorted[0]) {
					t.Fatalf("trial %d: n<=p output not equal: %v", trial, got)
				}
			}
		}
	}
}

func TestPropertyIdempotent(t *testing.T) {
	r := xrand.New(2)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(30)
		p := 1 + r.Intn(6)
		w := randWeights(r, n)
		once := Weights(w, p)
		twice := Weights(once, p)
		for i := range once {
			if !almostEq(once[i], twice[i]) {
				t.Fatalf("trial %d: not idempotent: %v vs %v", trial, once, twice)
			}
		}
	}
}

func TestPropertyFeasibleUnchanged(t *testing.T) {
	// Threads that satisfy the constraint keep their weights ("weights of
	// threads that satisfy the feasibility constraint never change").
	r := xrand.New(3)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(30)
		p := 2 + r.Intn(6)
		if n <= p {
			continue
		}
		w := randWeights(r, n)
		got := Weights(w, p)
		for i := range w {
			if got[i] > w[i]*(1+1e-9) {
				t.Fatalf("trial %d: weight increased: %g -> %g", trial, w[i], got[i])
			}
			if got[i] < w[i] && !almostEq(got[i], w[i]) {
				// Changed weights must be capped threads: verify the
				// original weight violated feasibility against the
				// adjusted total.
				var sum float64
				for _, x := range got {
					sum += x
				}
				if !almostEq(got[i]*float64(p), sum) {
					t.Fatalf("trial %d: capped thread %d requests %g of %g (p=%d), not exactly 1/p",
						trial, i, got[i], sum, p)
				}
			}
		}
	}
}

func TestPropertyCapCount(t *testing.T) {
	// No more than p-1 threads can have infeasible weights (§2.1).
	r := xrand.New(4)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(50)
		p := 2 + r.Intn(8)
		if n <= p {
			continue
		}
		w := randWeights(r, n)
		sort.Sort(sort.Reverse(sort.Float64Slice(w)))
		if c := NumCapped(w, p); c > p-1 {
			t.Fatalf("trial %d: %d capped threads exceeds p-1=%d", trial, c, p-1)
		}
	}
}

func TestRatesSumToCapacity(t *testing.T) {
	// Work conservation: total GMS rate is min(n, p) CPUs.
	r := xrand.New(5)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		p := 1 + r.Intn(8)
		w := randWeights(r, n)
		rates := Rates(w, p)
		var sum float64
		for _, x := range rates {
			if x < -1e-12 || x > 1+1e-12 {
				t.Fatalf("rate out of [0,1]: %g", x)
			}
			sum += x
		}
		want := float64(p)
		if n < p {
			want = float64(n)
		}
		if math.Abs(sum-want) > 1e-9*want {
			t.Fatalf("trial %d: rates sum %g, want %g (n=%d p=%d)", trial, sum, want, n, p)
		}
	}
}

func TestRatesMatchReadjustedWeights(t *testing.T) {
	// The water-filling rates equal φ_i/Σφ_j × p for the readjusted
	// weights whenever n > p — the two formulations of GMS agree.
	r := xrand.New(6)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(40)
		p := 2 + r.Intn(6)
		if n <= p {
			continue
		}
		w := randWeights(r, n)
		phi := Weights(w, p)
		rates := Rates(w, p)
		var sum float64
		for _, x := range phi {
			sum += x
		}
		for i := range w {
			want := phi[i] / sum * float64(p)
			if math.Abs(rates[i]-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d idx %d: rate %g, φ-derived %g", trial, i, rates[i], want)
			}
		}
	}
}

func TestRatesProportionalForUncapped(t *testing.T) {
	rates := Rates([]float64{1, 10, 1}, 2)
	// Thread 2 capped at 1 CPU; threads 1 and 3 share the second CPU
	// equally.
	if !almostEq(rates[1], 1) || !almostEq(rates[0], 0.5) || !almostEq(rates[2], 0.5) {
		t.Fatalf("rates = %v", rates)
	}
}

func TestOutputFeasibleQuick(t *testing.T) {
	// quick-generated vectors complement the xrand sweeps above; the
	// feasibility check carries an epsilon because capped weights land
	// exactly on the constraint boundary.
	f := func(raw []uint8, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		w := make([]float64, 0, len(raw))
		for _, x := range raw {
			w = append(w, float64(x%100)+1)
		}
		if len(w) == 0 {
			return true
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(w)))
		SortedDesc(w, p)
		if len(w) <= p || p == 1 {
			return true
		}
		var sum float64
		for _, x := range w {
			sum += x
		}
		return w[0]*float64(p) <= sum*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustedStaysSorted(t *testing.T) {
	// Capped threads all receive the same φ (they each hold exactly one
	// CPU), so a descending input stays descending after readjustment.
	r := xrand.New(8)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(40)
		p := 2 + r.Intn(6)
		w := randWeights(r, n)
		sort.Sort(sort.Reverse(sort.Float64Slice(w)))
		SortedDesc(w, p)
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1]*(1+1e-9) {
				t.Fatalf("trial %d: output not descending at %d: %v", trial, i, w)
			}
		}
	}
}

func TestWaterFillBasics(t *testing.T) {
	// No caps binding: plain proportional split.
	got := WaterFill([]float64{3, 1}, []float64{10, 10}, 4)
	if !almostEq(got[0], 3) || !almostEq(got[1], 1) {
		t.Fatalf("got %v", got)
	}
	// Cap binds: entity 0 pinned, remainder to entity 1 (itself capped).
	got = WaterFill([]float64{10, 1}, []float64{1, 1}, 2)
	if !almostEq(got[0], 1) || !almostEq(got[1], 1) {
		t.Fatalf("got %v", got)
	}
	// Total cap below capacity: result sums to total cap.
	got = WaterFill([]float64{1, 1}, []float64{0.25, 0.25}, 4)
	if !almostEq(got[0], 0.25) || !almostEq(got[1], 0.25) {
		t.Fatalf("got %v", got)
	}
}

func TestWaterFillMatchesRates(t *testing.T) {
	// With unit caps and capacity p, WaterFill is exactly Rates.
	r := xrand.New(11)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(30)
		p := 1 + r.Intn(6)
		w := randWeights(r, n)
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 1
		}
		a := WaterFill(w, caps, float64(p))
		b := Rates(w, p)
		for i := range w {
			if math.Abs(a[i]-b[i]) > 1e-9*(1+b[i]) {
				t.Fatalf("trial %d idx %d: WaterFill %g vs Rates %g", trial, i, a[i], b[i])
			}
		}
	}
}

func TestWaterFillConservation(t *testing.T) {
	r := xrand.New(12)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(20)
		w := randWeights(r, n)
		caps := make([]float64, n)
		var total float64
		for i := range caps {
			caps[i] = r.Float64() * 3
			total += caps[i]
		}
		capacity := r.Float64() * 8
		got := WaterFill(w, caps, capacity)
		var sum float64
		for i, x := range got {
			if x > caps[i]+1e-9 {
				t.Fatalf("trial %d: rate %g exceeds cap %g", trial, x, caps[i])
			}
			sum += x
		}
		want := math.Min(capacity, total)
		if math.Abs(sum-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: sum %g, want %g", trial, sum, want)
		}
	}
}

func TestWaterFillPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { WaterFill([]float64{1}, []float64{1, 2}, 1) },
		func() { WaterFill([]float64{-1}, []float64{1}, 1) },
		func() { WaterFill([]float64{1}, []float64{-1}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
