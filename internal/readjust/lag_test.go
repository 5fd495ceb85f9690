package readjust

import (
	"math"
	"testing"

	"sfsched/internal/simtime"
)

// TestLags pins the proportional-share lag T·w/Σw − service, which is GMS's
// on one processor: no weight reaches the one-CPU cap there, so the
// water-fill leaves the rates proportional to the weights.
func TestLags(t *testing.T) {
	lags := func(services []simtime.Duration, weights []float64) []float64 {
		var g GMSLag
		for i := range services {
			g.Add(services[i], weights[i])
		}
		return g.Lags(1)
	}
	// 3s delivered over weights 1:2 → ideals 1s/2s; the 1-weight entity got
	// 2s (1s ahead), the 2-weight entity 1s (1s behind). Lags sum to zero.
	got := lags(
		[]simtime.Duration{2 * simtime.Second, simtime.Second},
		[]float64{1, 2})
	if math.Abs(got[0]+1) > 1e-9 || math.Abs(got[1]-1) > 1e-9 {
		t.Fatalf("lags %v, want [-1 1]", got)
	}
	if sum := got[0] + got[1]; math.Abs(sum) > 1e-9 {
		t.Fatalf("lags sum to %g, want 0", sum)
	}
	proportional := lags(
		[]simtime.Duration{simtime.Second, 3 * simtime.Second},
		[]float64{1, 3})
	for i, l := range proportional {
		if math.Abs(l) > 1e-9 {
			t.Fatalf("proportional delivery has lag %g at %d", l, i)
		}
	}
}

func TestGMSLag(t *testing.T) {
	// 10:1:1 on 2 CPUs is infeasible: GMS gives the heavy entity one CPU and
	// the others half a CPU each, so over 4s of service the ideal is 2s/1s/1s.
	// A raw-weight ideal (3.33s) would call the heavy entity behind at 2.5s;
	// against GMS it is 0.5s ahead.
	var g GMSLag
	for range 2 { // the second pass reuses the scratch
		g.Add(2500*simtime.Millisecond, 10)
		g.Add(750*simtime.Millisecond, 1)
		g.Add(750*simtime.Millisecond, 1)
		got := g.Lags(2)
		want := []float64{-0.5, 0.25, 0.25}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("lags %v, want %v", got, want)
			}
		}
	}
	// Fewer entities than CPUs: each gets a whole CPU, whatever its weight.
	g.Add(simtime.Second, 1)
	g.Add(3*simtime.Second, 5)
	if got := g.Lags(4); math.Abs(got[0]-1) > 1e-9 || math.Abs(got[1]+1) > 1e-9 {
		t.Fatalf("lags %v, want [1 -1]", got)
	}
}
