// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact; see DESIGN.md §4 for the index), plus the
// ablation benchmarks for the §3 design choices. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run a scaled-down simulation per iteration (the full
// paper-scale runs live in cmd/paperbench); the overhead benchmarks
// (Table 1, Figure 7) measure the real scheduler hot path per operation.
package sfsched_test

import (
	"fmt"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/experiments"
	"sfsched/internal/hier"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// shortHorizon scales a timeline experiment down for per-iteration runs.
func shortFig4(p experiments.Fig4Params) experiments.Fig4Params {
	p.T3Arrival = simtime.Time(3 * simtime.Second)
	p.T2Stop = simtime.Time(6 * simtime.Second)
	p.Horizon = simtime.Time(8 * simtime.Second)
	return p
}

// BenchmarkFig1InfeasibleWeights regenerates the Figure 1 starvation
// timeline (Example 1) under plain SFQ with 1 ms quanta.
func BenchmarkFig1InfeasibleWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(experiments.Fig1Defaults(experiments.SFQ))
		if r.Service[0] == 0 {
			b.Fatal("no service delivered")
		}
	}
}

// BenchmarkFig3HeuristicAccuracy regenerates one cell of Figure 3: k=20,
// 200 runnable threads on 4 CPUs.
func BenchmarkFig3HeuristicAccuracy(b *testing.B) {
	p := experiments.Fig3Defaults()
	p.Threads = []int{200}
	p.Ks = []int{20}
	p.Horizon = simtime.Time(2 * simtime.Second)
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(p)
		if r.Accuracy[200][0] < 90 {
			b.Fatalf("accuracy collapsed: %v", r.Accuracy)
		}
	}
}

// BenchmarkFig4Readjustment regenerates the Figure 4 three-phase workload
// under each scheduler variant.
func BenchmarkFig4Readjustment(b *testing.B) {
	for _, kind := range []experiments.Kind{experiments.SFQ, experiments.SFQReadjust, experiments.SFS} {
		b.Run(string(kind), func(b *testing.B) {
			p := shortFig4(experiments.Fig4Defaults(kind))
			for i := 0; i < b.N; i++ {
				experiments.Fig4(p)
			}
		})
	}
}

// BenchmarkFig5ShortJobs regenerates the Figure 5 short-jobs workload.
func BenchmarkFig5ShortJobs(b *testing.B) {
	for _, kind := range []experiments.Kind{experiments.SFQ, experiments.SFS} {
		b.Run(string(kind), func(b *testing.B) {
			p := experiments.Fig5Defaults(kind)
			p.Horizon = simtime.Time(8 * simtime.Second)
			for i := 0; i < b.N; i++ {
				experiments.Fig5(p)
			}
		})
	}
}

// BenchmarkFig6aProportionalAllocation regenerates the dhrystone ratio
// sweep of Figure 6(a).
func BenchmarkFig6aProportionalAllocation(b *testing.B) {
	p := experiments.Fig6aDefaults(experiments.SFS)
	p.Horizon = simtime.Time(8 * simtime.Second)
	for i := 0; i < b.N; i++ {
		experiments.Fig6a(p)
	}
}

// BenchmarkFig6bIsolation regenerates the MPEG-vs-compilations sweep of
// Figure 6(b).
func BenchmarkFig6bIsolation(b *testing.B) {
	p := experiments.Fig6bDefaults()
	p.Horizon = simtime.Time(6 * simtime.Second)
	p.Compilations = []int{0, 4, 10}
	for i := 0; i < b.N; i++ {
		experiments.Fig6b(p)
	}
}

// BenchmarkFig6cInteractive regenerates the response-time sweep of
// Figure 6(c).
func BenchmarkFig6cInteractive(b *testing.B) {
	p := experiments.Fig6cDefaults()
	p.Horizon = simtime.Time(6 * simtime.Second)
	p.Disksims = []int{0, 4, 10}
	for i := 0; i < b.N; i++ {
		experiments.Fig6c(p)
	}
}

// BenchmarkTable1Lmbench measures the per-switch scheduler cost for the
// three lmbench context-switch configurations of Table 1, for both
// schedulers. ns/op is directly comparable to the paper's table rows.
func BenchmarkTable1Lmbench(b *testing.B) {
	cases := []struct{ nproc, wsKB int }{{2, 0}, {8, 16}, {16, 64}}
	for _, kind := range []experiments.Kind{experiments.Timeshare, experiments.SFS} {
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/%dproc-%dKB", kind, c.nproc, c.wsKB), func(b *testing.B) {
				s := experiments.MustScheduler(kind, 1, 200*simtime.Millisecond)
				b.ResetTimer()
				experiments.SwitchCost(s, c.nproc, c.wsKB, b.N)
			})
		}
	}
}

// BenchmarkFig7SwitchCost measures switch cost growth with run-queue length
// (0 KB processes), the Figure 7 series.
func BenchmarkFig7SwitchCost(b *testing.B) {
	for _, kind := range []experiments.Kind{experiments.Timeshare, experiments.SFS} {
		for _, n := range []int{2, 10, 25, 50} {
			b.Run(fmt.Sprintf("%s/%dproc", kind, n), func(b *testing.B) {
				s := experiments.MustScheduler(kind, 1, 200*simtime.Millisecond)
				b.ResetTimer()
				experiments.SwitchCost(s, n, 0, b.N)
			})
		}
	}
}

// --- Ablation benchmarks for the §3 design choices -----------------------

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

// BenchmarkAblationReadjustment measures the arrival/departure path with and
// without the weight readjustment algorithm (its cost is O(p), §3.2).
func BenchmarkAblationReadjustment(b *testing.B) {
	bench := func(b *testing.B, opts ...core.Option) {
		s := core.New(8, opts...)
		for i := 0; i < 200; i++ {
			if err := s.Add(mkThread(i+1, float64(1+i%9)), 0); err != nil {
				b.Fatal(err)
			}
		}
		churn := mkThread(10_000, 500) // heavy: always infeasible
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Add(churn, 0); err != nil {
				b.Fatal(err)
			}
			churn.State = sched.Blocked
			if err := s.Remove(churn, 0); err != nil {
				b.Fatal(err)
			}
			churn.State = sched.Runnable
		}
	}
	b.Run("with", func(b *testing.B) { bench(b) })
	b.Run("without", func(b *testing.B) { bench(b, core.WithoutReadjustment()) })
}

// BenchmarkExtensionPartition regenerates the §1.2 partitioning-alternative
// comparison (extension experiment).
func BenchmarkExtensionPartition(b *testing.B) {
	p := experiments.PartitionDefaults()
	p.Horizon = simtime.Time(10 * simtime.Second)
	for i := 0; i < b.N; i++ {
		experiments.Partition(p)
	}
}

// BenchmarkExtensionHierarchy measures the hierarchical scheduler's hot path
// (pick + charge with nested water-filling readjustment on churn).
func BenchmarkExtensionHierarchy(b *testing.B) {
	h := hier.New(4, 10*simtime.Millisecond)
	classes := []*hier.Class{
		h.MustAddClass("a", 4),
		h.MustAddClass("b", 2),
		h.MustAddClass("c", 1),
	}
	for i := 0; i < 60; i++ {
		t := mkThread(i+1, float64(1+i%5))
		h.Assign(t, classes[i%3])
		if err := h.Add(t, 0); err != nil {
			b.Fatal(err)
		}
	}
	now := simtime.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := h.Pick(0, now)
		t.CPU = 0
		now = now.Add(10 * simtime.Millisecond)
		h.Charge(t, 10*simtime.Millisecond, now)
		t.CPU = sched.NoCPU
	}
}
