package sfsched_test

// Property-based fairness testing against the GMS fluid ideal, for SFS and
// for Figure 3's §3.2 heuristic scheduler, over randomized workloads.
//
// Two scenarios split along the paper's own guarantee boundary:
//
//   - Compute churn (arrivals, infeasible weight spikes, setweight calls,
//     but no blocking): every thread is continuously runnable from its
//     arrival, so each thread's total service must track the GMS fluid
//     within a few quanta — Equation 3's surplus, the paper's fairness
//     metric, held over the entire run.
//
//   - Blocking churn (periodic sleepers joining and leaving the runnable
//     set): fair queueing's wakeup rule S_i = max(F_i, v) deliberately
//     forgives a sleeper's surplus each cycle, so cumulative fluid lag is
//     only bounded for threads that never sleep. Here the asserted property
//     is the §2.3 pairwise guarantee between the continuously-runnable
//     threads: weight-normalized service of any two stays within a small
//     multiple of q·(1/w_i + 1/w_j) over the whole run.

import (
	"fmt"
	"math"
	"testing"

	"sfsched"
	"sfsched/internal/experiments"
	"sfsched/internal/xrand"
)

// sfsModes are the scheduler variants under property test; bounds hold ~2x
// headroom over the worst values observed across 40 probe trials per mode.
var sfsModes = []struct {
	name string
	// lagFactor bounds |service − GMS| for a continuously-runnable thread
	// in the compute-churn scenario as lagFactor·q·(1 + φ_i): a thread one
	// quantum behind in virtual time is φ_i quanta behind in absolute
	// service, so the bound must scale with the thread's instantaneous
	// weight. The §3.2 heuristic trades bounded accuracy for cost and gets
	// extra slack.
	lagFactor float64
	// pairQuanta scales the pairwise bound in the blocking-churn scenario.
	pairQuanta float64
	new        func(p int, quantum sfsched.Duration) checkedScheduler
}{
	{"float", 5, 4, func(p int, q sfsched.Duration) checkedScheduler {
		return sfsched.NewSFS(p, sfsched.WithQuantum(q))
	}},
	{"heuristic20", 6, 6, func(p int, q sfsched.Duration) checkedScheduler {
		return experiments.NewHeuristicSFS(p, q, 20)
	}},
}

// checkedScheduler is what the property tests drive.
type checkedScheduler interface {
	sfsched.Scheduler
	CheckInvariants() error
}

func TestPropertyFairnessComputeChurn(t *testing.T) {
	const quantum = 20 * sfsched.Millisecond
	const horizon = sfsched.Time(20 * sfsched.Second)
	for _, mode := range sfsModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < 10; trial++ {
				r := xrand.New(uint64(1000*len(mode.name) + trial))
				p := 2 + r.Intn(3)
				sfs := mode.new(p, quantum)
				m := sfsched.NewMachine(sfsched.MachineConfig{
					CPUs: p, Scheduler: sfs, Seed: uint64(trial),
				})
				fluid := sfsched.NewGMS(p)
				m.SetHooks(hooksFor(fluid))

				n := p + 2 + r.Intn(8)
				tasks := make([]*sfsched.Task, n)
				arrivals := make([]sfsched.Time, n)
				for i := 0; i < n; i++ {
					w := 1 + 19*r.Float64()
					if r.Intn(7) == 0 {
						w = 50 + 150*r.Float64() // infeasible: w·p > Σw
					}
					// Keep at least p+1 threads from t=0 so the machine is
					// never idle; stagger the rest across the first 2 s.
					if i > p {
						arrivals[i] = sfsched.Time(sfsched.Duration(r.Intn(2000)) * sfsched.Millisecond)
					}
					tasks[i] = m.Spawn(sfsched.SpawnConfig{
						Name: fmt.Sprintf("t%d", i), Weight: w,
						Behavior: sfsched.Inf(), At: arrivals[i],
					})
				}
				// Random setweight calls mid-run (the paper's dynamic
				// weight scenario); the fluid adapts through the hook.
				for c := 0; c < r.Intn(4); c++ {
					at := sfsched.Time(sfsched.Duration(2000+r.Intn(15000)) * sfsched.Millisecond)
					victim := tasks[r.Intn(n)]
					neww := 1 + 29*r.Float64()
					m.At(at, func(now sfsched.Time) {
						_ = m.SetWeight(victim, neww)
					})
				}
				// Paranoia: structural invariants checked throughout.
				m.Every(500*sfsched.Millisecond, func(now sfsched.Time) {
					if err := sfs.CheckInvariants(); err != nil {
						t.Fatalf("%s trial %d at %v: %v", mode.name, trial, now, err)
					}
				})

				m.Run(horizon)
				fluid.Advance(horizon)
				for i, k := range tasks {
					lag := fluid.Lag(k.Thread())
					bound := mode.lagFactor * quantum.Seconds() * (1 + k.Thread().Phi)
					if math.Abs(lag) > bound {
						t.Errorf("%s trial %d: t%d (w=%g, φ=%g, arrived %v) lags GMS by %.4fs, bound %.2fs",
							mode.name, trial, i, k.Thread().Weight, k.Thread().Phi, arrivals[i], lag, bound)
					}
				}
			}
		})
	}
}

func TestPropertyFairnessBlockingChurn(t *testing.T) {
	const quantum = 20 * sfsched.Millisecond
	const horizon = sfsched.Time(20 * sfsched.Second)
	for _, mode := range sfsModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < 10; trial++ {
				r := xrand.New(uint64(7000*len(mode.name) + trial))
				p := 2 + r.Intn(2)
				sfs := mode.new(p, quantum)
				m := sfsched.NewMachine(sfsched.MachineConfig{
					CPUs: p, Scheduler: sfs, Seed: uint64(trial),
				})
				// Weights in [1, 2.5] with 2p compute threads keep every
				// instantaneous weight assignment feasible (w_max·p ≤ Σw
				// even when all sleepers are off the queue), so φ_i = w_i
				// throughout and the pairwise bound applies verbatim.
				weight := func() float64 { return 1 + 1.5*r.Float64() }
				var compute []*sfsched.Task
				for i := 0; i < 2*p; i++ {
					compute = append(compute, m.Spawn(sfsched.SpawnConfig{
						Name: fmt.Sprintf("inf%d", i), Weight: weight(),
						Behavior: sfsched.Inf(),
					}))
				}
				nper := 2 + r.Intn(4)
				for i := 0; i < nper; i++ {
					burst := sfsched.Duration(20+r.Intn(180)) * sfsched.Millisecond
					sleep := sfsched.Duration(20+r.Intn(130)) * sfsched.Millisecond
					m.Spawn(sfsched.SpawnConfig{
						Name: fmt.Sprintf("per%d", i), Weight: weight(),
						Behavior: sfsched.Periodic(burst, sleep),
						At:       sfsched.Time(sfsched.Duration(r.Intn(1000)) * sfsched.Millisecond),
					})
				}
				m.Every(500*sfsched.Millisecond, func(now sfsched.Time) {
					if err := sfs.CheckInvariants(); err != nil {
						t.Fatalf("%s trial %d at %v: %v", mode.name, trial, now, err)
					}
				})
				m.Run(horizon)
				// §2.3 pairwise fairness between continuously-runnable
				// threads, with blocking churn raging around them.
				for i := 0; i < len(compute); i++ {
					for j := i + 1; j < len(compute); j++ {
						wi := compute[i].Thread().Weight
						wj := compute[j].Thread().Weight
						xi := compute[i].Thread().Service.Seconds() / wi
						xj := compute[j].Thread().Service.Seconds() / wj
						bound := mode.pairQuanta * quantum.Seconds() * (1/wi + 1/wj)
						if d := math.Abs(xi - xj); d > bound {
							t.Errorf("%s trial %d: |S%d/w%d − S%d/w%d| = %.4fs exceeds %.4fs",
								mode.name, trial, i, i, j, j, d, bound)
						}
					}
				}
			}
		})
	}
}
