package readjust

import (
	"fmt"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// Fluid integrates the idealized GMS allocation over time. Not safe for
// concurrent use.
type Fluid struct {
	p       int
	last    simtime.Time
	threads []*sched.Thread // runnable set, stable order
	index   map[*sched.Thread]int
	service map[*sched.Thread]float64 // seconds of ideal CPU service
}

// NewFluid returns a fluid integrator for p processors starting at time 0.
func NewFluid(p int) *Fluid {
	if p < 1 {
		panic(fmt.Sprintf("readjust: invalid processor count %d", p))
	}
	return &Fluid{
		p:       p,
		index:   make(map[*sched.Thread]int),
		service: make(map[*sched.Thread]float64),
	}
}

// Advance integrates the ideal allocation up to now with the current
// runnable set. Callers must Advance before changing the set.
func (f *Fluid) Advance(now simtime.Time) {
	dt := now.Sub(f.last).Seconds()
	f.last = now
	if dt <= 0 || len(f.threads) == 0 {
		return
	}
	weights := make([]float64, len(f.threads))
	for i, t := range f.threads {
		weights[i] = t.Weight
	}
	rates := Rates(weights, f.p)
	for i, t := range f.threads {
		f.service[t] += rates[i] * dt
	}
}

// Add makes t part of the runnable set from time now.
func (f *Fluid) Add(t *sched.Thread, now simtime.Time) {
	f.Advance(now)
	if _, ok := f.index[t]; ok {
		return
	}
	f.index[t] = len(f.threads)
	f.threads = append(f.threads, t)
}

// Remove takes t out of the runnable set at time now. Accumulated ideal
// service is retained so comparisons remain valid after blocking.
func (f *Fluid) Remove(t *sched.Thread, now simtime.Time) {
	f.Advance(now)
	i, ok := f.index[t]
	if !ok {
		return
	}
	last := len(f.threads) - 1
	f.threads[i] = f.threads[last]
	f.index[f.threads[i]] = i
	f.threads = f.threads[:last]
	delete(f.index, t)
}

// Service returns the ideal GMS service of t in seconds of CPU time,
// integrated up to the last Advance.
func (f *Fluid) Service(t *sched.Thread) float64 { return f.service[t] }

// Lag returns A_i − A_i^GMS in seconds: positive values mean the real
// scheduler has over-served the thread relative to GMS, negative values mean
// it is behind. This is the true surplus of Equation 3.
func (f *Fluid) Lag(t *sched.Thread) float64 {
	return t.Service.Seconds() - f.service[t]
}

// MaxAbsLag returns the largest |lag| across the given threads, the headline
// fairness metric for integration tests.
func (f *Fluid) MaxAbsLag(threads []*sched.Thread) float64 {
	var max float64
	for _, t := range threads {
		lag := f.Lag(t)
		if lag < 0 {
			lag = -lag
		}
		if lag > max {
			max = lag
		}
	}
	return max
}
