package experiments

import (
	"fmt"
	"strings"

	"sfsched/internal/machine"
	"sfsched/internal/metrics"
	"sfsched/internal/simtime"
	"sfsched/internal/workload"
)

// InfLoopCost is the CPU cost of one iteration of the Inf application's
// loop. With 16 µs per iteration a thread owning a full CPU completes about
// 62,500 iterations per second — the same order as the paper's Inf curves
// (~2.5e6 iterations over 40 s).
const InfLoopCost = 16 * simtime.Microsecond

// Fig4Params configures the infeasible-weights experiment (Figure 4 and,
// with a 1 ms quantum, the Figure 1 timeline): two Inf tasks with weights
// 1:10 from t=0, a third Inf task with weight 1 arriving at T3Arrival, and
// the weight-10 task killed at T2Stop.
type Fig4Params struct {
	Kind        Kind
	CPUs        int
	Quantum     simtime.Duration
	T3Arrival   simtime.Time
	T2Stop      simtime.Time // 0 disables the kill (Figure 1 variant)
	Horizon     simtime.Time
	SampleEvery simtime.Duration
	Seed        uint64
}

// Fig4Defaults returns the paper's setup for Figure 4 under the given
// scheduler: dual-processor, 200 ms quantum, T3 at 15 s, T2 stopped at 30 s,
// 40 s horizon.
func Fig4Defaults(kind Kind) Fig4Params {
	return Fig4Params{
		Kind:        kind,
		CPUs:        2,
		Quantum:     200 * simtime.Millisecond,
		T3Arrival:   simtime.Time(15 * simtime.Second),
		T2Stop:      simtime.Time(30 * simtime.Second),
		Horizon:     simtime.Time(40 * simtime.Second),
		SampleEvery: 500 * simtime.Millisecond,
		Seed:        1,
	}
}

// Fig1Defaults returns the Example 1 / Figure 1 setup: 1 ms quanta, T3
// arriving after 1000 quanta (t=1 s), no kill, 2.5 s horizon.
func Fig1Defaults(kind Kind) Fig4Params {
	return Fig4Params{
		Kind:        kind,
		CPUs:        2,
		Quantum:     simtime.Millisecond,
		T3Arrival:   simtime.Time(simtime.Second),
		Horizon:     simtime.Time(2500 * simtime.Millisecond),
		SampleEvery: 25 * simtime.Millisecond,
		Seed:        1,
	}
}

// Fig4Result carries the three iteration-count series of Figure 4 (T1 w=1,
// T2 w=10, T3 w=1) plus final services.
type Fig4Result struct {
	Params  Fig4Params
	Sched   string
	T1      *metrics.Series
	T2      *metrics.Series
	T3      *metrics.Series
	Service [3]simtime.Duration
}

// Fig4 runs the infeasible-weights experiment.
func Fig4(p Fig4Params) Fig4Result {
	m := NewMachine(p.Kind, p.CPUs, p.Quantum, p.Seed)
	t1 := m.Spawn(machine.SpawnConfig{Name: "T1", Weight: 1, Behavior: workload.Inf()})
	t2 := m.Spawn(machine.SpawnConfig{Name: "T2", Weight: 10, Behavior: workload.Inf()})
	t3 := m.Spawn(machine.SpawnConfig{Name: "T3", Weight: 1, Behavior: workload.Inf(), At: p.T3Arrival})
	if p.T2Stop > 0 {
		m.At(p.T2Stop, func(now simtime.Time) { m.Kill(t2) })
	}
	tasks := []*machine.Task{t1, t2, t3}
	series := make([]*metrics.Series, len(tasks))
	for i, k := range tasks {
		series[i] = &metrics.Series{Name: k.Thread().Name}
	}
	m.Every(p.SampleEvery, func(now simtime.Time) {
		for i, k := range tasks {
			series[i].X = append(series[i].X, now.Seconds())
			series[i].Y = append(series[i].Y, workload.Loops(m.ServiceNow(k), InfLoopCost))
		}
	})
	m.Run(p.Horizon)
	return Fig4Result{
		Params:  p,
		Sched:   m.Scheduler().Name(),
		T1:      series[0],
		T2:      series[1],
		T3:      series[2],
		Service: [3]simtime.Duration{t1.Thread().Service, t2.Thread().Service, t3.Thread().Service},
	}
}

// StarvationWindow returns the service (in loops) task T1 accumulated in the
// window [from, to] seconds; ~0 under plain SFQ (starvation), strictly
// positive with readjustment.
func (r Fig4Result) StarvationWindow(from, to float64) float64 {
	return r.T1.Delta(from, to)
}

// Render formats the result for CLI output.
func (r Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 workload under %s (quantum %v, %d CPUs)\n",
		r.Sched, r.Params.Quantum, r.Params.CPUs)
	for _, s := range []*metrics.Series{r.T1, r.T2, r.T3} {
		fmt.Fprintf(&b, "  %-3s loops: %s  final=%.3g\n", s.Name, metrics.Sparkline(s.Y), s.Last())
	}
	t3s := r.Params.T3Arrival.Seconds()
	stop := r.Params.Horizon.Seconds()
	if r.Params.T2Stop > 0 {
		stop = r.Params.T2Stop.Seconds()
	}
	fmt.Fprintf(&b, "  T1 progress while T3 catches up [%.3gs..%.3gs]: %.4g loops\n",
		t3s, stop, r.StarvationWindow(t3s+0.5, stop-0.5))
	return b.String()
}
