// Package partition implements the partitioned-SFQ alternative the paper
// discusses and rejects in §1.2: "employ a GPS-based scheduler for each
// processor and partition the set of threads among processors such that each
// processor is load balanced... periodic repartitioning of threads may be
// necessary since blocked/terminated threads can cause imbalances across
// processors. Frequent repartitioning can be expensive; doing so
// infrequently can result in imbalances (and unfairness) across partitions."
//
// The implementation gives each processor a private uniprocessor SFQ
// instance. Arriving threads join the partition with the least total weight;
// thereafter a thread runs only on its own processor — there is no work
// stealing, which is precisely the source of the unfairness the paper
// predicts. An optional rebalance interval plans and moves threads as the
// runtime's shard rebalancer does (readjust.PlanBalance); the ablation
// experiment (experiments.Partitioned) measures fairness against rebalance
// frequency, reproducing the paper's argument for why SFS is the better design.
package partition

import (
	"fmt"
	"slices"

	"sfsched/internal/readjust"
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
}

// Option configures a Partitioned scheduler.
type Option func(*Partitioned)

// WithQuantum sets the per-partition maximum quantum.
func WithQuantum(q simtime.Duration) Option {
	return func(s *Partitioned) { s.quantum = q }
}

// WithRebalance enables periodic repartitioning: every interval,
// readjust.PlanBalance moves waiting threads from overloaded to underloaded
// partitions, as the runtime's rebalancer moves tenants between shards.
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

// rebalance is the "periodic repartitioning" of §1.2, as rt.Rebalance does it:
// readjust.PlanBalance over the partitions' runnable weight at one worker
// each, offered the waiting threads in readjust.CompareMovers order, and each
// mover re-admitted at its frame lead, clamped at zero as engine.CaptureLead is.
func (s *Partitioned) rebalance(now simtime.Time) {
	workers := slices.Repeat([]int{1}, s.p)
	movable := make([][]float64, s.p)
	cands := make([][]*sched.Thread, s.p)
	for i, part := range s.parts {
		for _, t := range part.Threads() {
			if !t.Running() {
				cands[i] = append(cands[i], t)
			}
		}
		slices.SortFunc(cands[i], func(a, b *sched.Thread) int {
			return readjust.CompareMovers(part.FreshSurplus(a), a.ID, part.FreshSurplus(b), b.ID)
		})
		for _, t := range cands[i] {
			movable[i] = append(movable[i], t.Weight)
		}
	}
	for _, mv := range readjust.PlanBalance(s.weightOf, workers, movable) {
		t, src, dst := cands[mv.Src][mv.Idx], s.parts[mv.Src], s.parts[mv.Dst]
		if err := src.Remove(t, now); err != nil {
			panic(fmt.Sprintf("partition: rebalance %v: %v", t, err))
		}
		dst.SetFrameLead(t, max(src.FrameLead(t), 0))
		if err := dst.Add(t, now); err != nil {
			panic(fmt.Sprintf("partition: rebalance %v: %v", t, err))
		}
		s.weightOf[mv.Src] -= t.Weight
		s.weightOf[mv.Dst] += t.Weight
		s.home[t] = mv.Dst
	}
}
