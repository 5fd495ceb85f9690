// Package lottery implements lottery scheduling [Waldspurger & Weihl,
// OSDI'94], the randomized proportional-share scheduler the paper cites as
// prior work ([30]).
//
// Each thread holds tickets equal to its weight; at every scheduling
// instance the scheduler draws a uniformly random ticket among non-running
// threads and runs its holder. Expected service is proportional to tickets,
// but only in expectation — the variance is what deterministic schedulers
// (stride, SFQ, SFS) were invented to remove. On multiprocessors lottery
// shares the infeasible-weights problem: a thread holding most of the
// tickets wins almost every drawing yet can only use one CPU. The paper
// proposes its readjustment (§2.1) for GPS-based schedulers, which lottery
// is not, so a thread's tickets are its weight (φ = w).
//
// The draw uses the machine-independent deterministic generator from
// internal/xrand, so simulations remain reproducible.
package lottery

import (
	"fmt"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// Lottery is a lottery scheduler for p processors. Not safe for concurrent
// use.
type Lottery struct {
	p        int
	quantum  simtime.Duration
	runnable []*sched.Thread
	rng      *xrand.Rand
	picks    int64
}

// Option configures a Lottery instance.
type Option func(*cfg)

type cfg struct {
	quantum simtime.Duration
	seed    uint64
}

// WithQuantum sets the maximum quantum granted per dispatch.
func WithQuantum(q simtime.Duration) Option { return func(c *cfg) { c.quantum = q } }

// New returns a lottery scheduler for p processors. It panics if p < 1.
func New(p int, opts ...Option) *Lottery {
	if p < 1 {
		panic(fmt.Sprintf("lottery: invalid processor count %d", p))
	}
	c := cfg{quantum: sched.DefaultQuantum, seed: 1}
	for _, o := range opts {
		o(&c)
	}
	return &Lottery{
		p:       p,
		quantum: c.quantum,
		rng:     xrand.New(c.seed),
	}
}

// Name implements sched.Scheduler.
func (l *Lottery) Name() string { return "lottery" }

// NumCPU implements sched.Scheduler.
func (l *Lottery) NumCPU() int { return l.p }

// Runnable implements sched.Scheduler.
func (l *Lottery) Runnable() int { return len(l.runnable) }

// Add implements sched.Scheduler.
func (l *Lottery) Add(t *sched.Thread, now simtime.Time) error {
	if !sched.ValidWeight(t.Weight) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, t.Weight)
	}
	for _, r := range l.runnable {
		if r == t {
			return fmt.Errorf("%w: %v", sched.ErrAlreadyManaged, t)
		}
	}
	l.runnable = append(l.runnable, t)
	t.Phi = t.Weight
	return nil
}

// Remove implements sched.Scheduler.
func (l *Lottery) Remove(t *sched.Thread, now simtime.Time) error {
	for i, r := range l.runnable {
		if r == t {
			l.runnable = append(l.runnable[:i], l.runnable[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: %v", sched.ErrNotManaged, t)
}

// Charge implements sched.Scheduler: lottery keeps no virtual time; only
// the service account advances.
func (l *Lottery) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	if ran < 0 {
		panic("lottery: negative charge")
	}
	t.Service += ran
}

// Timeslice implements sched.Scheduler.
func (l *Lottery) Timeslice(t *sched.Thread, now simtime.Time) simtime.Duration {
	return l.quantum
}

// SetWeight implements sched.Scheduler.
func (l *Lottery) SetWeight(t *sched.Thread, w float64, now simtime.Time) error {
	if !sched.ValidWeight(w) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, w)
	}
	t.Weight = w
	t.Phi = w
	return nil
}

// Pick implements sched.Scheduler: draw a ticket among non-running threads.
func (l *Lottery) Pick(cpu int, now simtime.Time) *sched.Thread {
	var total float64
	for _, t := range l.runnable {
		if !t.Running() {
			total += t.Phi
		}
	}
	if total == 0 {
		return nil
	}
	draw := l.rng.Float64() * total
	var acc float64
	for _, t := range l.runnable {
		if t.Running() {
			continue
		}
		acc += t.Phi
		if draw < acc {
			l.picks++
			return t
		}
	}
	// Floating-point slack: return the last eligible thread.
	for i := len(l.runnable) - 1; i >= 0; i-- {
		if !l.runnable[i].Running() {
			l.picks++
			return l.runnable[i]
		}
	}
	return nil
}

// Less implements sched.Scheduler: lottery has no deterministic preference
// order; for wakeup preemption we treat higher tickets-per-service as more
// deserving (a woken interactive thread with little service wins).
func (l *Lottery) Less(a, b *sched.Thread) bool {
	return a.Service.Seconds()/a.Phi < b.Service.Seconds()/b.Phi
}

// Threads returns the runnable threads (unordered copy).
func (l *Lottery) Threads() []*sched.Thread {
	return append([]*sched.Thread(nil), l.runnable...)
}

// Picks returns the number of drawings performed.
func (l *Lottery) Picks() int64 { return l.picks }
