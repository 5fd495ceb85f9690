// Package metrics provides the measurement apparatus of the experiments,
// the runtime and the cluster: time series (the "number of iterations"
// curves of Figures 4 and 5, sampled by the experiments), shares of the
// total service (Totals), and fairness indices; lags against GMS are
// readjust.GMSLag's. It also holds the runtime's latency histograms
// (histogram.go), whose low tier is inline and whose high tier is allocated
// once, by the first sample at or above 131 ms. It imports neither the
// simulated machine nor the runtime, so the runtime does not link the
// simulator.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"sfsched/internal/simtime"
)

// Series is a named time series: X in seconds, Y in arbitrary units.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Last returns the final Y value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// At returns the Y value at the sample closest to x seconds.
func (s *Series) At(x float64) float64 {
	if len(s.X) == 0 {
		return 0
	}
	best, dist := 0, math.Inf(1)
	for i, v := range s.X {
		if d := math.Abs(v - x); d < dist {
			best, dist = i, d
		}
	}
	return s.Y[best]
}

// Delta returns the change in Y over the closed interval [x0, x1] seconds.
func (s *Series) Delta(x0, x1 float64) float64 { return s.At(x1) - s.At(x0) }

// Totals holds the total service that shares are taken against. A caller
// that already walks its entities accumulates them with Add and then reads
// each entity's Share without building a vector; SharesOf is the share over
// a slice.
type Totals struct {
	Service simtime.Duration
}

// Add counts one entity's service.
func (t *Totals) Add(service simtime.Duration) { t.Service += service }

// Share is service's fraction of the total service, 0 when there is none.
func (t *Totals) Share(service simtime.Duration) float64 {
	if t.Service == 0 {
		return 0
	}
	return float64(service) / float64(t.Service)
}

// SharesOf normalizes services to fractions of their sum.
func SharesOf(services ...simtime.Duration) []float64 {
	var t Totals
	for _, s := range services {
		t.Service += s
	}
	out := make([]float64, len(services))
	for i, s := range services {
		out[i] = t.Share(s)
	}
	return out
}

// RatioError returns the maximum relative error between the measured service
// vector and the ideal proportions: max_i |measured_i/ideal_i − c| / c where
// c is the least-squares scale. Both vectors must be positive and of equal
// length.
func RatioError(measured []float64, ideal []float64) float64 {
	if len(measured) != len(ideal) || len(measured) == 0 {
		panic("metrics: mismatched ratio vectors")
	}
	// Scale factor minimizing squared error of measured ≈ c·ideal.
	var num, den float64
	for i := range measured {
		num += measured[i] * ideal[i]
		den += ideal[i] * ideal[i]
	}
	if den == 0 {
		panic("metrics: zero ideal vector")
	}
	c := num / den
	if c == 0 {
		return math.Inf(1)
	}
	var worst float64
	for i := range measured {
		e := math.Abs(measured[i]-c*ideal[i]) / (c * ideal[i])
		if e > worst {
			worst = e
		}
	}
	return worst
}

// JainIndex computes Jain's fairness index of per-weight normalized service:
// (Σ x_i)² / (n · Σ x_i²) where x_i = service_i / weight_i. 1.0 is perfectly
// proportional, and so is a vector whose x_i are all zero.
func JainIndex(services []simtime.Duration, weights []float64) float64 {
	if len(services) != len(weights) || len(services) == 0 {
		panic("metrics: mismatched fairness vectors")
	}
	var sum, sumsq float64
	for i := range services {
		x := services[i].Seconds() / weights[i]
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(services)) * sumsq)
}

// Table is a simple fixed-column text table for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Sparkline renders y values as a compact unicode sparkline, a quick visual
// check of series shapes in CLI output.
func Sparkline(y []float64) string {
	if len(y) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	min, max := y[0], y[0]
	for _, v := range y {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	var b strings.Builder
	for _, v := range y {
		i := 0
		if max > min {
			i = int((v - min) / (max - min) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[i])
	}
	return b.String()
}
