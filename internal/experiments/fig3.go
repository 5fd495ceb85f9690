package experiments

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"sfsched/internal/core"
	"sfsched/internal/machine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/workload"
	"sfsched/internal/xrand"
)

// Fig3Params configures the heuristic-accuracy experiment (Figure 3): a
// quad-processor machine with many runnable threads of random weights, where
// each scheduling decision made by the bounded-examination heuristic is
// compared against the exact minimum-surplus thread.
type Fig3Params struct {
	CPUs    int
	Threads []int // runnable-thread counts to sweep (paper: 100..400)
	Ks      []int // candidates examined per queue (paper: x-axis 0..100)
	Quantum simtime.Duration
	Horizon simtime.Time
	Seed    uint64
}

// Fig3Defaults returns the paper's Figure 3 setup.
func Fig3Defaults() Fig3Params {
	return Fig3Params{
		CPUs:    4,
		Threads: []int{100, 200, 300, 400},
		Ks:      []int{1, 2, 5, 10, 20, 40, 60, 80, 100},
		Quantum: 10 * simtime.Millisecond,
		Horizon: simtime.Time(10 * simtime.Second),
		Seed:    7,
	}
}

// Fig3Result holds heuristic accuracy (percent of decisions that picked a
// thread tied with the true minimum surplus) per thread count per k.
type Fig3Result struct {
	Params   Fig3Params
	Accuracy map[int][]float64 // thread count -> accuracy aligned with Params.Ks
}

// HeuristicSFS is the paper's §3.2 scheduler, reproduced for the one thing
// that still uses it, Figure 3. The paper's exact pick was a linear scan of
// all runnable threads, so its kernel kept three sorted queues — start tags,
// weights, and surpluses as of each thread's last update — and examined only
// the first k of each. Here the exact kernel (internal/core) keeps tags, φ
// and v, and this type adds what the heuristic is: the stored surpluses,
// stale between refreshes as in the paper's kernel, and the bounded pick. It
// is deliberately not a core option, an experiments.Kind or a policy name:
// core's own pick is exact and cheaper at every size.
type HeuristicSFS struct {
	*core.SFS
	k int
	// stored is each thread's surplus as of its last update: when it
	// arrived, when it was last charged, or at the last periodic refresh.
	stored map[*sched.Thread]float64
	since  int // decisions since the last periodic refresh
}

// surplusUpdatePeriod is how many decisions pass between refreshes of every
// stored surplus ("infrequent updates and sorting are still required to
// maintain a high accuracy of the heuristic", §3.2).
const surplusUpdatePeriod = 50

// NewHeuristicSFS returns an SFS scheduler for p processors whose picks
// examine k threads per queue.
func NewHeuristicSFS(p int, quantum simtime.Duration, k int) *HeuristicSFS {
	return &HeuristicSFS{SFS: core.New(p, core.WithQuantum(quantum)), k: k, stored: make(map[*sched.Thread]float64)}
}

// Name implements sched.Scheduler.
func (h *HeuristicSFS) Name() string { return fmt.Sprintf("SFS(k=%d)", h.k) }

// Add implements sched.Scheduler: an arrival enters the surplus queue at its
// surplus of the moment.
func (h *HeuristicSFS) Add(t *sched.Thread, now simtime.Time) error {
	if err := h.SFS.Add(t, now); err != nil {
		return err
	}
	h.stored[t] = h.FreshSurplus(t)
	return nil
}

// Charge implements sched.Scheduler: only the charged thread is re-sorted;
// every other stored surplus keeps the virtual time it was computed against.
func (h *HeuristicSFS) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	h.SFS.Charge(t, ran, now)
	h.stored[t] = h.FreshSurplus(t)
}

// Pick implements sched.Scheduler: the thread with the least surplus
// typically has a small start tag, a small weight or a small surplus at its
// last update, so the least fresh surplus among the first k threads of each
// queue finds it with high probability. Ties go to the heavier thread, then
// the lower ID, as in the kernel.
func (h *HeuristicSFS) Pick(cpu int, now simtime.Time) *sched.Thread {
	byStart := h.Threads() // the start-tag queue: ascending (start tag, ID)
	if h.since++; h.since >= surplusUpdatePeriod {
		h.since = 0
		clear(h.stored) // and with it the entries of threads that left
		for _, t := range byStart {
			h.stored[t] = h.FreshSurplus(t)
		}
	}
	k := min(h.k, len(byStart))
	examined := slices.Concat(byStart[:k],
		firstK(byStart, k, func(a, b *sched.Thread) int { // the surplus queue as last sorted
			return cmp.Or(cmp.Compare(h.stored[a], h.stored[b]), cmp.Compare(b.Weight, a.Weight), cmp.Compare(a.ID, b.ID))
		}),
		firstK(byStart, k, func(a, b *sched.Thread) int { // the weight queue from its light end
			return cmp.Or(cmp.Compare(a.Weight, b.Weight), cmp.Compare(b.ID, a.ID))
		}))
	var best *sched.Thread
	if waiting := slices.DeleteFunc(examined, (*sched.Thread).Running); len(waiting) > 0 {
		best = slices.MinFunc(waiting, func(a, b *sched.Thread) int {
			return cmp.Or(cmp.Compare(h.FreshSurplus(a), h.FreshSurplus(b)), cmp.Compare(b.Weight, a.Weight), cmp.Compare(a.ID, b.ID))
		})
	} else if i := slices.IndexFunc(byStart, func(t *sched.Thread) bool { return !t.Running() }); i >= 0 {
		best = byStart[i] // all examined are running: stay work-conserving with the earliest that is not
	}
	return best
}

// firstK returns the first k of ts sorted by order: the head of one of the
// paper's sorted queues, without keeping the queue.
func firstK(ts []*sched.Thread, k int, order func(a, b *sched.Thread) int) []*sched.Thread {
	head := make([]*sched.Thread, 0, k)
	for _, t := range ts {
		if len(head) == k && (k == 0 || order(t, head[k-1]) >= 0) {
			continue // not among the first k so far
		}
		i, _ := slices.BinarySearchFunc(head, t, order)
		head = slices.Insert(head[:min(len(head), k-1)], i, t)
	}
	return head
}

// accuracyProbe wraps the heuristic scheduler, comparing every pick against
// the exact minimum surplus.
type accuracyProbe struct {
	*HeuristicSFS
	hits, total int64
}

// Pick implements sched.Scheduler, recording heuristic accuracy.
func (p *accuracyProbe) Pick(cpu int, now simtime.Time) *sched.Thread {
	_, exact := p.ExactMinSurplus()
	t := p.HeuristicSFS.Pick(cpu, now)
	if t != nil {
		p.total++
		fresh := t.Phi * (t.Start - p.VirtualTime())
		if fresh <= exact+1e-12+1e-9*math.Abs(exact) {
			p.hits++
		}
	}
	return t
}

func (p *accuracyProbe) accuracy() float64 {
	if p.total == 0 {
		return 0
	}
	return 100 * float64(p.hits) / float64(p.total)
}

// Fig3 runs the heuristic-accuracy sweep.
func Fig3(p Fig3Params) Fig3Result {
	res := Fig3Result{Params: p, Accuracy: make(map[int][]float64)}
	for _, n := range p.Threads {
		accs := make([]float64, 0, len(p.Ks))
		for _, k := range p.Ks {
			accs = append(accs, fig3Run(p, n, k))
		}
		res.Accuracy[n] = accs
	}
	return res
}

// fig3Run measures accuracy for one (thread count, k) cell.
func fig3Run(p Fig3Params, n, k int) float64 {
	probe := &accuracyProbe{HeuristicSFS: NewHeuristicSFS(p.CPUs, p.Quantum, k)}
	m := machine.New(machine.Config{
		CPUs:      p.CPUs,
		Scheduler: probe,
		Seed:      p.Seed,
	})
	// Weight mix: random weights in [1, 50]; 70% compute-bound, 30%
	// blocking periodically so that start tags, weights and stale
	// surpluses diverge — the regime the heuristic must cope with.
	wr := xrand.New(p.Seed ^ uint64(n)<<16 ^ uint64(k))
	for i := 0; i < n; i++ {
		var beh machine.Behavior
		if wr.Float64() < 0.7 {
			beh = workload.Inf()
		} else {
			burst := simtime.Duration(20+wr.Intn(60)) * simtime.Millisecond
			sleep := simtime.Duration(5+wr.Intn(45)) * simtime.Millisecond
			beh = workload.Periodic(burst, sleep)
		}
		m.Spawn(machine.SpawnConfig{
			Name:     fmt.Sprintf("t%d", i),
			Weight:   float64(1 + wr.Intn(50)),
			Behavior: beh,
		})
	}
	m.Run(p.Horizon)
	return probe.accuracy()
}

// Render formats the result as the paper's accuracy table.
func (r Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: heuristic accuracy (%%) on %d CPUs\n", r.Params.CPUs)
	fmt.Fprintf(&b, "  %-10s", "k")
	for _, k := range r.Params.Ks {
		fmt.Fprintf(&b, "%7d", k)
	}
	b.WriteByte('\n')
	for _, n := range r.Params.Threads {
		fmt.Fprintf(&b, "  %-10s", fmt.Sprintf("n=%d", n))
		for _, a := range r.Accuracy[n] {
			fmt.Fprintf(&b, "%7.2f", a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
