package readjust

// Fuzzing of the Figure 2 readjustment algorithm and its water-filling
// generalization. The fuzz input encodes a processor count, a capacity
// scaler, and a list of integer weights (integer so that the sums inside
// Weights and NumCapped are exact and the counting invariants can be
// asserted without tolerance). Weights is held against Figure 2's recursion
// (figure2), and the invariants checked are the paper's:
// feasibility of the output, weights only ever lowered, the nearest-
// assignment property (some weight unchanged), idempotence, cap respect and
// capacity conservation under water-filling, and proportional sharing among
// unpinned entities.

import (
	"math"
	"sort"
	"testing"
)

// decodeWeights maps fuzz bytes to positive integer-valued weights.
func decodeWeights(data []byte, max int) []float64 {
	if len(data) > max {
		data = data[:max]
	}
	ws := make([]float64, 0, len(data))
	for _, b := range data {
		ws = append(ws, 1+float64(b))
	}
	return ws
}

func FuzzReadjust(f *testing.F) {
	f.Add([]byte{3, 4, 200, 1, 1, 1, 1})        // one infeasible spike on 3 CPUs
	f.Add([]byte{1, 1, 5, 9})                   // uniprocessor: identity
	f.Add([]byte{7, 2, 8, 8, 8})                // n <= p: equal-rate convention
	f.Add([]byte{4, 9, 255, 254, 253, 2, 1, 1}) // several capped threads
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip("need p, capacity and at least one weight")
		}
		p := 1 + int(data[0]%8)
		capacity := 0.5 + float64(data[1]%16)/2 // 0.5 .. 8.0
		ws := decodeWeights(data[2:], 64)
		n := len(ws)

		out := Weights(ws, p)
		if len(out) != n {
			t.Fatalf("length changed: %d -> %d", n, len(out))
		}
		unchanged := false
		for i := range out {
			if out[i] <= 0 {
				t.Fatalf("non-positive readjusted weight %g at %d", out[i], i)
			}
			if out[i] > ws[i] {
				t.Fatalf("readjustment raised weight %d: %g -> %g", i, ws[i], out[i])
			}
			if out[i] == ws[i] {
				unchanged = true
			}
		}
		if !unchanged {
			t.Fatalf("nearest-assignment violated: every weight modified (%v -> %v)", ws, out)
		}
		// Feasibility of the output (Equation 1), with float tolerance: the
		// capped weight is rest/(p-1), so the equality case sits exactly on
		// the constraint boundary.
		sorted := append([]float64(nil), out...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		if n > p && p > 1 {
			var sum float64
			for _, x := range sorted {
				sum += x
			}
			if sorted[0]*float64(p) > sum*(1+1e-12)+1e-12 {
				t.Fatalf("infeasible output: w_max=%g p=%d sum=%g", sorted[0], p, sum)
			}
		}
		// Idempotence: readjusting a readjusted assignment is a no-op.
		again := Weights(out, p)
		for i := range again {
			if math.Abs(again[i]-out[i]) > 1e-9*(1+math.Abs(out[i])) {
				t.Fatalf("not idempotent at %d: %g -> %g", i, out[i], again[i])
			}
		}
		// Weights is Figure 2's recursion to rounding, and lowers exactly the
		// weights the counting scan says violate the constraint (exact:
		// integer weights).
		for i, want := range figure2(ws, p) {
			if math.Abs(out[i]-want) > 1e-9*want {
				t.Fatalf("Weights gives %g at %d, Figure 2 gives %g (weights %v, p %d)", out[i], i, want, ws, p)
			}
		}
		lowered := 0
		for i := range out {
			if out[i] != ws[i] {
				lowered++
			}
		}
		desc := append([]float64(nil), ws...)
		sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
		wantCapped := NumCapped(desc, p)
		if lowered != wantCapped {
			t.Fatalf("Weights lowered %d weights, NumCapped counts %d (weights %v, p %d)", lowered, wantCapped, ws, p)
		}
		if n > p && wantCapped > p-1 {
			t.Fatalf("%d capped threads exceeds the paper's p-1 bound (p=%d)", wantCapped, p)
		}

		// Water-filling: caps derived from the same bytes, fractional.
		caps := make([]float64, n)
		var totalCap float64
		for i, b := range data[2 : 2+n] {
			caps[i] = 0.25 + float64(b%8)/4 // 0.25 .. 2.0
			totalCap += caps[i]
		}
		rates := WaterFill(ws, caps, capacity)
		var sum float64
		for i, r := range rates {
			if r < -1e-12 || r > caps[i]+1e-9 {
				t.Fatalf("rate %g at %d violates cap %g", r, i, caps[i])
			}
			sum += r
		}
		want := math.Min(capacity, totalCap)
		if math.Abs(sum-want) > 1e-6*(1+want) {
			t.Fatalf("capacity not conserved: Σrates=%g, want %g", sum, want)
		}
		// Unpinned entities share in proportion to their weights.
		for i := 0; i < n; i++ {
			if rates[i] >= caps[i]-1e-9 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if rates[j] >= caps[j]-1e-9 {
					continue
				}
				if math.Abs(rates[i]*ws[j]-rates[j]*ws[i]) > 1e-6*(1+rates[i]*ws[j]) {
					t.Fatalf("unpinned rates not proportional: r%d=%g w%d=%g vs r%d=%g w%d=%g",
						i, rates[i], i, ws[i], j, rates[j], j, ws[j])
				}
			}
		}
		// Figure 2 as the special case of water-filling: caps = 1 CPU,
		// capacity = p must reproduce the GMS rates.
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		viaFill := WaterFill(ws, ones, float64(p))
		viaRates := Rates(ws, p)
		for i := range viaFill {
			if math.Abs(viaFill[i]-viaRates[i]) > 1e-6*(1+viaRates[i]) {
				t.Fatalf("WaterFill and Rates disagree at %d: %g vs %g", i, viaFill[i], viaRates[i])
			}
		}
	})
}
