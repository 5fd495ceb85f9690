package metrics

import (
	"math"
	"strings"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/machine"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

func TestSeriesAccessors(t *testing.T) {
	s := Series{Name: "x", X: []float64{0, 1, 2, 3}, Y: []float64{10, 20, 30, 40}}
	if s.Last() != 40 {
		t.Fatalf("Last = %g", s.Last())
	}
	if s.At(1.1) != 20 {
		t.Fatalf("At(1.1) = %g", s.At(1.1))
	}
	if s.Delta(1, 3) != 20 {
		t.Fatalf("Delta = %g", s.Delta(1, 3))
	}
	empty := Series{}
	if empty.Last() != 0 || empty.At(5) != 0 {
		t.Fatal("empty series accessors")
	}
}

func TestServiceSampler(t *testing.T) {
	m := machine.New(machine.Config{
		CPUs:      1,
		Scheduler: core.New(1),
		Seed:      1,
	})
	k := m.Spawn(machine.SpawnConfig{
		Name: "solo",
		Behavior: machine.BehaviorFunc(func(now simtime.Time, r *xrand.Rand) machine.Step {
			return machine.Step{Burst: simtime.Infinity, Then: machine.ThenBlock}
		}),
	})
	sampler := NewServiceSampler(m, simtime.Second, simtime.Microsecond, k)
	m.Run(simtime.Time(5 * simtime.Second))
	ss := sampler.Series()
	if len(ss) != 1 {
		t.Fatalf("series count %d", len(ss))
	}
	if len(ss[0].Y) != 5 {
		t.Fatalf("samples %d, want 5", len(ss[0].Y))
	}
	// A solo thread on one CPU accrues 1e6 µs-loops per second.
	if got := ss[0].At(3); math.Abs(got-3e6) > 1 {
		t.Fatalf("At(3s) = %g, want 3e6", got)
	}
}

func TestSharesOf(t *testing.T) {
	got := SharesOf(simtime.Second, 3*simtime.Second)
	if got[0] != 0.25 || got[1] != 0.75 {
		t.Fatalf("shares %v", got)
	}
	zero := SharesOf(0, 0)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("zero services must give zero shares")
	}
}

func TestRatioError(t *testing.T) {
	if got := RatioError([]float64{2, 4, 8}, []float64{1, 2, 4}); got > 1e-12 {
		t.Fatalf("perfect ratios give error %g", got)
	}
	got := RatioError([]float64{1, 1}, []float64{1, 2})
	if got < 0.2 {
		t.Fatalf("bad ratios give error %g", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched lengths did not panic")
			}
		}()
		RatioError([]float64{1}, []float64{1, 2})
	}()
}

func TestLags(t *testing.T) {
	// 3s delivered over weights 1:2 → ideals 1s/2s; the 1-weight entity got
	// 2s (1s ahead), the 2-weight entity 1s (1s behind). Lags sum to zero.
	got := Lags(
		[]simtime.Duration{2 * simtime.Second, simtime.Second},
		[]float64{1, 2})
	if math.Abs(got[0]+1) > 1e-9 || math.Abs(got[1]-1) > 1e-9 {
		t.Fatalf("lags %v, want [-1 1]", got)
	}
	if sum := got[0] + got[1]; math.Abs(sum) > 1e-9 {
		t.Fatalf("lags sum to %g, want 0", sum)
	}
	proportional := Lags(
		[]simtime.Duration{simtime.Second, 3 * simtime.Second},
		[]float64{1, 3})
	for i, l := range proportional {
		if math.Abs(l) > 1e-9 {
			t.Fatalf("proportional delivery has lag %g at %d", l, i)
		}
	}
	zero := Lags([]simtime.Duration{0, 0}, []float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("zero-weight set must give zero lags")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched lengths did not panic")
			}
		}()
		Lags([]simtime.Duration{1}, []float64{1, 2})
	}()
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

func TestJainIndex(t *testing.T) {
	perfect := JainIndex(
		[]simtime.Duration{simtime.Second, 2 * simtime.Second},
		[]float64{1, 2})
	if math.Abs(perfect-1) > 1e-12 {
		t.Fatalf("perfect Jain %g", perfect)
	}
	unfair := JainIndex(
		[]simtime.Duration{simtime.Second, simtime.Second},
		[]float64{1, 10})
	if unfair > 0.99 {
		t.Fatalf("unfair Jain %g should be < 0.99", unfair)
	}
	if unfair < 0.5 {
		t.Fatalf("Jain lower bound for n=2 is 0.5, got %g", unfair)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tab.AddRow("alpha", "1")
	tab.AddRow("beta-very-long", "22")
	out := tab.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "beta-very-long") {
		t.Fatalf("render:\n%s", out)
	}
	// Title + header + separator + two rows.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline")
	}
	out := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(out)) != 4 {
		t.Fatalf("sparkline runes %q", out)
	}
	flat := Sparkline([]float64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline %q", flat)
	}
}
