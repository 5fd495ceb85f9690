package metrics

import (
	"math"
	"strings"
	"testing"

	"sfsched/internal/simtime"
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
