package readjust

import "sfsched/internal/simtime"

// GMSLag accumulates entities one at a time, like metrics.Totals, and then
// gives each one's lag behind GMS (§2.2) on p processors, in seconds:
// T·r_i/Σr − s_i, where T is the total service, s_i the entity's, and r the
// water-fill of the weights with unit caps over p — Rates, the rates of
// §2.1's readjusted weights. Positive means behind; the lags sum to
// zero. The figure is GMS's exactly for entities runnable throughout, since
// it integrates no runnable intervals. A GMSLag reused across passes
// allocates nothing once its scratch has grown; it is not safe for
// concurrent use.
type GMSLag struct {
	services            []simtime.Duration
	weights, caps, lags []float64
	fill                Filler
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
