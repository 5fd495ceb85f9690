// Package metrics provides the measurement apparatus for the experiment
// harness: time series of per-task service (the "number of iterations"
// curves of Figures 4 and 5), share computations, and the fairness indices
// used to compare schedulers against the GMS ideal. It also holds the
// runtime's latency histograms (histogram.go), whose low tier is inline and
// whose high tier is allocated once, by the first sample at or above 131 ms.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"sfsched/internal/machine"
	"sfsched/internal/readjust"
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

// ServiceSampler records cumulative service time series for a set of tasks,
// scaled to application loops.
type ServiceSampler struct {
	m       *machine.Machine
	perLoop simtime.Duration
	tasks   []*machine.Task
	series  []*Series
}

// NewServiceSampler samples the given tasks every interval, reporting
// cumulative loop counts assuming each loop costs perLoop of CPU (use 1µs for
// raw service in µs). Attach before machine.Run.
func NewServiceSampler(m *machine.Machine, interval simtime.Duration, perLoop simtime.Duration, tasks ...*machine.Task) *ServiceSampler {
	s := &ServiceSampler{m: m, perLoop: perLoop, tasks: tasks}
	for _, k := range tasks {
		s.series = append(s.series, &Series{Name: k.Thread().Name})
	}
	m.Every(interval, s.sample)
	return s
}

func (s *ServiceSampler) sample(now simtime.Time) {
	for i, k := range s.tasks {
		s.series[i].X = append(s.series[i].X, now.Seconds())
		s.series[i].Y = append(s.series[i].Y, float64(s.m.ServiceNow(k))/float64(s.perLoop))
	}
}

// Series returns the recorded series, one per task, in task order.
func (s *ServiceSampler) Series() []*Series { return s.series }

// Totals holds the sums that shares and lags are taken against. A caller that
// already walks its entities accumulates them with Add and then reads each
// entity's Share and Lag without building a vector; SharesOf and Lags are the
// same expressions over slices.
type Totals struct {
	Service simtime.Duration
	Weight  float64
}

// Add counts one entity.
func (t *Totals) Add(service simtime.Duration, weight float64) {
	t.Service += service
	t.Weight += weight
}

// Share is service's fraction of the total service, 0 when there is none.
func (t *Totals) Share(service simtime.Duration) float64 {
	if t.Service == 0 {
		return 0
	}
	return float64(service) / float64(t.Service)
}

// Lag is one entity's lag behind the proportional ideal in seconds (see
// Lags), 0 when the weights sum to zero.
func (t *Totals) Lag(service simtime.Duration, weight float64) float64 {
	if t.Weight == 0 {
		return 0
	}
	return t.Service.Seconds()*weight/t.Weight - service.Seconds()
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

// Lags returns each entity's service lag behind the proportional-share
// ideal, in seconds: lag_i = T·w_i/Σw − service_i where T is the total
// delivered service. Positive means the entity is behind its entitlement,
// negative that it is ahead; the lags always sum to zero. The sharded
// runtime exports these per tenant and per shard to show how far the
// partitioned dispatch drifts from the single-queue allocation.
func Lags(services []simtime.Duration, weights []float64) []float64 {
	if len(services) != len(weights) || len(services) == 0 {
		panic("metrics: mismatched lag vectors")
	}
	var t Totals
	for i := range services {
		t.Add(services[i], weights[i])
	}
	out := make([]float64, len(services))
	for i := range services {
		out[i] = t.Lag(services[i], weights[i])
	}
	return out
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

// GMSLag accumulates entities one at a time, like Totals, and then gives
// each one's lag behind GMS (§2.2) on p processors, in seconds:
// T·r_i/Σr − s_i, where T is the total service, s_i the entity's, and r the
// water-fill of the weights with unit caps over p — readjust.Rates, the
// rates of §2.1's readjusted weights. Positive means behind; the lags sum to
// zero. The figure is GMS's exactly for entities runnable throughout, since
// it integrates no runnable intervals. A GMSLag reused across passes
// allocates nothing once its scratch has grown; it is not safe for
// concurrent use.
type GMSLag struct {
	services            []simtime.Duration
	weights, caps, lags []float64
	fill                readjust.Filler
}

// Add counts one entity; weight must be positive.
func (g *GMSLag) Add(service simtime.Duration, weight float64) {
	g.services, g.weights, g.caps = append(g.services, service), append(g.weights, weight), append(g.caps, 1)
}

// Lags returns the lags of the entities added since the last call, in Add
// order, in a slice the next call reuses.
func (g *GMSLag) Lags(p int) []float64 {
	g.lags = g.fill.Fill(g.lags, g.weights, g.caps, float64(p))
	var total simtime.Duration
	var sum float64
	for i, r := range g.lags {
		total += g.services[i]
		sum += r
	}
	for i, r := range g.lags {
		g.lags[i] = total.Seconds()*r/sum - g.services[i].Seconds()
	}
	g.services, g.weights, g.caps = g.services[:0], g.weights[:0], g.caps[:0]
	return g.lags
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
