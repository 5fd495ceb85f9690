// Package partition implements the partitioned-SFQ alternative the paper
// discusses and rejects in §1.2: "employ a GPS-based scheduler for each
// processor and partition the set of threads among processors such that each
// processor is load balanced... periodic repartitioning of threads may be
// necessary since blocked/terminated threads can cause imbalances across
// processors. Frequent repartitioning can be expensive; doing so
// infrequently can result in imbalances (and unfairness) across partitions."
//
// The implementation gives each processor a private uniprocessor SFQ
// instance. Arriving threads join the partition with the least total weight
// (greedy balancing); thereafter a thread runs only on its own processor —
// there is no work stealing, which is precisely the source of the unfairness
// the paper predicts. An optional rebalance interval moves threads from the
// heaviest to the lightest partition; the ablation experiment
// (experiments.Partitioned) measures fairness against rebalance frequency,
// reproducing the paper's qualitative argument for why SFS is the better
// design.
package partition

import (
	"fmt"

	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
)

// Partitioned runs one uniprocessor SFQ per processor with static thread
// placement and optional periodic rebalancing. Not safe for concurrent use.
type Partitioned struct {
	p        int
	quantum  simtime.Duration
	parts    []*sfq.SFQ
	weightOf []float64 // total weight per partition
	home     map[*sched.Thread]int
	interval simtime.Duration // 0 = never rebalance
	lastBal  simtime.Time
	moves    int64 // threads moved by rebalancing
}

// Option configures a Partitioned scheduler.
type Option func(*Partitioned)

// WithQuantum sets the per-partition maximum quantum.
func WithQuantum(q simtime.Duration) Option {
	return func(s *Partitioned) { s.quantum = q }
}

// WithRebalance enables periodic repartitioning: every interval, threads
// move from overloaded to underloaded partitions until the weights are as
// balanced as a greedy pass can make them.
func WithRebalance(interval simtime.Duration) Option {
	return func(s *Partitioned) { s.interval = interval }
}

// New returns a partitioned scheduler for p processors. It panics if p < 1.
func New(p int, opts ...Option) *Partitioned {
	if p < 1 {
		panic(fmt.Sprintf("partition: invalid processor count %d", p))
	}
	s := &Partitioned{
		p:        p,
		quantum:  sched.DefaultQuantum,
		weightOf: make([]float64, p),
		home:     make(map[*sched.Thread]int),
	}
	for _, o := range opts {
		o(s)
	}
	for i := 0; i < p; i++ {
		s.parts = append(s.parts, sfq.New(1, sfq.WithQuantum(s.quantum)))
	}
	return s
}

// Name implements sched.Scheduler.
func (s *Partitioned) Name() string {
	if s.interval > 0 {
		return fmt.Sprintf("partitioned-SFQ(rebal=%v)", s.interval)
	}
	return "partitioned-SFQ"
}

// NumCPU implements sched.Scheduler.
func (s *Partitioned) NumCPU() int { return s.p }

// Runnable implements sched.Scheduler.
func (s *Partitioned) Runnable() int {
	n := 0
	for _, part := range s.parts {
		n += part.Runnable()
	}
	return n
}

// Moves returns how many threads rebalancing has migrated.
func (s *Partitioned) Moves() int64 { return s.moves }

// PartitionWeights returns the current total weight per partition (tests
// and metrics).
func (s *Partitioned) PartitionWeights() []float64 {
	return append([]float64(nil), s.weightOf...)
}

// lightest returns the partition index with the least total weight.
func (s *Partitioned) lightest() int {
	best := 0
	for i := 1; i < s.p; i++ {
		if s.weightOf[i] < s.weightOf[best] {
			best = i
		}
	}
	return best
}

// Add implements sched.Scheduler: greedy placement on the lightest
// partition; a woken thread returns to its home partition (processor
// affinity, the one advantage of this design).
func (s *Partitioned) Add(t *sched.Thread, now simtime.Time) error {
	i, ok := s.home[t]
	if !ok {
		i = s.lightest()
	}
	if err := s.parts[i].Add(t, now); err != nil {
		return err
	}
	s.home[t] = i
	s.weightOf[i] += t.Weight
	return nil
}

// Remove implements sched.Scheduler. Blocked threads keep their home
// partition; exited threads are forgotten.
func (s *Partitioned) Remove(t *sched.Thread, now simtime.Time) error {
	i, ok := s.home[t]
	if !ok {
		return fmt.Errorf("%w: %v", sched.ErrNotManaged, t)
	}
	if err := s.parts[i].Remove(t, now); err != nil {
		return err
	}
	s.weightOf[i] -= t.Weight
	if t.State == sched.Exited {
		delete(s.home, t)
	}
	return nil
}

// Charge implements sched.Scheduler.
func (s *Partitioned) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	i, ok := s.home[t]
	if !ok {
		panic(fmt.Sprintf("partition: charge for unknown thread %v", t))
	}
	s.parts[i].Charge(t, ran, now)
}

// Timeslice implements sched.Scheduler.
func (s *Partitioned) Timeslice(t *sched.Thread, now simtime.Time) simtime.Duration {
	return s.quantum
}

// SetWeight implements sched.Scheduler.
func (s *Partitioned) SetWeight(t *sched.Thread, w float64, now simtime.Time) error {
	if !sched.ValidWeight(w) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, w)
	}
	if i, ok := s.home[t]; ok {
		s.weightOf[i] += w - t.Weight
		return s.parts[i].SetWeight(t, w, now)
	}
	t.Weight = w
	t.Phi = w
	return nil
}

// Pick implements sched.Scheduler: each CPU consults only its own
// partition. Rebalancing, when due, runs first.
func (s *Partitioned) Pick(cpu int, now simtime.Time) *sched.Thread {
	if s.interval > 0 && now.Sub(s.lastBal) >= s.interval {
		s.rebalance(now)
		s.lastBal = now
	}
	return s.parts[cpu].Pick(0, now)
}

// Less implements sched.Scheduler (wakeup preemption): defer to SFQ's
// start-tag order; cross-partition comparisons share the same tag space
// closely enough for a preemption hint.
func (s *Partitioned) Less(a, b *sched.Thread) bool { return a.Start < b.Start }

// rebalance migrates runnable, non-running threads from the heaviest to the
// lightest partition while doing so reduces the spread — the "periodic
// repartitioning" of §1.2.
func (s *Partitioned) rebalance(now simtime.Time) {
	for iter := 0; iter < s.p*4; iter++ {
		hi, lo := 0, 0
		for i := 1; i < s.p; i++ {
			if s.weightOf[i] > s.weightOf[hi] {
				hi = i
			}
			if s.weightOf[i] < s.weightOf[lo] {
				lo = i
			}
		}
		gap := s.weightOf[hi] - s.weightOf[lo]
		if gap <= 0 {
			return
		}
		// Move the largest thread that still shrinks the gap.
		var pick *sched.Thread
		for _, t := range s.parts[hi].Threads() {
			if t.Running() {
				continue
			}
			if t.Weight < gap && (pick == nil || t.Weight > pick.Weight) {
				pick = t
			}
		}
		if pick == nil {
			return
		}
		if err := s.parts[hi].Remove(pick, now); err != nil {
			return
		}
		if err := s.parts[lo].Add(pick, now); err != nil {
			// Undo on failure; should not happen.
			_ = s.parts[hi].Add(pick, now)
			return
		}
		s.weightOf[hi] -= pick.Weight
		s.weightOf[lo] += pick.Weight
		s.home[pick] = lo
		s.moves++
	}
}
