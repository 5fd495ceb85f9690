// Scale benchmarks for the scheduler hot path (Table 1 / Figure 7 at modern
// run-queue depths). BenchmarkFig*/BenchmarkTable1* in bench_test.go stay at
// the paper's scale (tens to hundreds of threads); these push the same
// charge+pick cycle to 1k and 10k runnable threads on 4 and 16 CPUs,
// with float and fixed-point tag arithmetic — the regime
// the ROADMAP's "tens of thousands of threads" target cares about.
//
// Run with:
//
//	go test -bench=Overhead -benchmem
//
// BENCH_1.json records the seed-vs-optimized trajectory; see README.md for
// the current before/after table.
package sfsched_test

import (
	"fmt"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// overheadCase is one cell of the scale sweep.
type overheadCase struct {
	name    string
	threads int
	cpus    int
	opts    []core.Option
	weights func(r *xrand.Rand, i int) float64 // nil: mixedWeights
	rampUp  bool                               // run every thread once before timing
}

// mixedWeights draws the sweep's default population: integer weights 1..40.
func mixedWeights(r *xrand.Rand, _ int) float64 { return float64(1 + r.Intn(40)) }

func overheadCases() []overheadCase {
	var cases []overheadCase
	for _, n := range []int{1000, 10000} {
		for _, p := range []int{4, 16} {
			cases = append(cases,
				overheadCase{name: fmt.Sprintf("exact/float/n=%d/p=%d", n, p), threads: n, cpus: p},
				overheadCase{name: fmt.Sprintf("exact/fixed/n=%d/p=%d", n, p), threads: n, cpus: p,
					opts: []core.Option{core.WithFixedPoint(4)}},
			)
		}
		// The two shapes the φ-class surplus queue is sensitive to. infeasible
		// is the sim workload's: thread 1 holds half the total weight, so it
		// is capped and φ_max sits far above every other φ. distinct is the
		// degenerate one: no two threads share a φ, so every class is one
		// thread; it is timed in steady state, past the ramp-up in which all
		// surpluses tie at zero.
		cases = append(cases,
			overheadCase{name: fmt.Sprintf("exact/float/infeasible/n=%d/p=4", n), threads: n, cpus: 4,
				weights: func(r *xrand.Rand, i int) float64 {
					if i == 0 {
						return float64(4 * n) // the others average 4
					}
					return float64(1 + r.Intn(7))
				}},
			overheadCase{name: fmt.Sprintf("exact/float/distinct/n=%d/p=4", n), threads: n, cpus: 4,
				weights: func(r *xrand.Rand, i int) float64 { return 1 + float64(i)/16 + r.Float64()/32 },
				rampUp:  true},
		)
	}
	return cases
}

// populate fills s with n runnable threads of mixed weights.
func populate(b *testing.B, s *core.SFS, n int) []*sched.Thread {
	return populateWith(b, s, n, nil)
}

// populateWith fills s with n runnable threads of the given weights (nil:
// mixedWeights).
func populateWith(b *testing.B, s *core.SFS, n int, weight func(*xrand.Rand, int) float64) []*sched.Thread {
	b.Helper()
	if weight == nil {
		weight = mixedWeights
	}
	r := xrand.New(42)
	threads := make([]*sched.Thread, n)
	for i := range threads {
		threads[i] = mkThread(i+1, weight(r, i))
		if err := s.Add(threads[i], 0); err != nil {
			b.Fatal(err)
		}
	}
	return threads
}

// BenchmarkOverheadPickCharge measures one scheduling decision — charge the
// outgoing thread, pick the successor — in steady state with all CPUs busy,
// the per-quantum cost every figure of the paper multiplies by.
func BenchmarkOverheadPickCharge(b *testing.B) {
	const quantum = 10 * simtime.Millisecond
	for _, c := range overheadCases() {
		b.Run(c.name, func(b *testing.B) {
			s := core.New(c.cpus, append(c.opts, core.WithQuantum(quantum))...)
			populateWith(b, s, c.threads, c.weights)
			now := simtime.Time(0)
			// Fill every CPU, then rotate one CPU per iteration.
			running := make([]*sched.Thread, c.cpus)
			for cpu := range running {
				t := s.Pick(cpu, now)
				if t == nil {
					b.Fatal("idle during warmup")
				}
				t.CPU = cpu
				running[cpu] = t
			}
			decide := func(cpu int) {
				t := running[cpu]
				now = now.Add(quantum)
				t.LastCPU = cpu
				t.CPU = sched.NoCPU
				s.Charge(t, quantum, now)
				next := s.Pick(cpu, now)
				if next == nil {
					b.Fatal("scheduler went idle")
				}
				next.CPU = cpu
				running[cpu] = next
			}
			if c.rampUp {
				for i := 0; i < 2*c.threads; i++ {
					decide(i % c.cpus)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decide(i % c.cpus)
			}
		})
	}
}

// BenchmarkOverheadChurn measures the blocking/wakeup path — remove a thread
// from the runnable set and re-add it — which runs the weight readjustment
// pass and all three queue updates per transition.
func BenchmarkOverheadChurn(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(b *testing.B) {
				s := core.New(p, core.WithQuantum(10*simtime.Millisecond))
				threads := populate(b, s, n)
				r := xrand.New(7)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t := threads[r.Intn(len(threads))]
					t.State = sched.Blocked
					if err := s.Remove(t, 0); err != nil {
						b.Fatal(err)
					}
					t.State = sched.Runnable
					if err := s.Add(t, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOverheadMixed interleaves dispatch with churn (one block/wake per
// 16 decisions), approximating a server workload where most quanta expire but
// some threads sleep on I/O.
func BenchmarkOverheadMixed(b *testing.B) {
	const quantum = 10 * simtime.Millisecond
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d/p=4", n), func(b *testing.B) {
			const cpus = 4
			s := core.New(cpus, core.WithQuantum(quantum))
			threads := populate(b, s, n)
			now := simtime.Time(0)
			r := xrand.New(11)
			running := make([]*sched.Thread, cpus)
			for cpu := range running {
				t := s.Pick(cpu, now)
				t.CPU = cpu
				running[cpu] = t
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cpu := i % cpus
				t := running[cpu]
				now = now.Add(quantum)
				t.LastCPU = cpu
				t.CPU = sched.NoCPU
				s.Charge(t, quantum, now)
				if i%16 == 15 {
					v := threads[r.Intn(len(threads))]
					if !v.Running() {
						v.State = sched.Blocked
						if err := s.Remove(v, now); err != nil {
							b.Fatal(err)
						}
						v.State = sched.Runnable
						if err := s.Add(v, now); err != nil {
							b.Fatal(err)
						}
					}
				}
				next := s.Pick(cpu, now)
				if next == nil {
					b.Fatal("scheduler went idle")
				}
				next.CPU = cpu
				running[cpu] = next
			}
		})
	}
}
