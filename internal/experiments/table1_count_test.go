//go:build sfscount

package experiments

import (
	"math"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/machine"
	"sfsched/internal/runqueue"
	"sfsched/internal/simtime"
	"sfsched/internal/workload"
)

// TestTable1AndFig7, under the sfscount build tag, is the SFS side of Table 1
// and Figure 7 by count: how the kernel work of a charge and a pick grows with
// the number of processes n and of distinct weights A (so of φ-classes,
// C = A: no weight is infeasible), n from 2 to 10 000 and A from 1 to 1 000 —
// both class regimes — on the seeded simulator, 4 CPUs, 1 ms quanta, counted
// over 2 simulated seconds after 2 of warm-up. In the cycle world every
// thread is compute-bound; in the churn world a third block and wake. The
// bounds are DESIGN.md §3's cost rows:
//
//   - charge: one O(log n/C) sift in the class heap and, when the thread led
//     its class, O(log C) in each class-level heap — in the cycle world, where
//     only charges move queues, at most L = log₂(n/C)+1 + 2·(log₂C+1) sift
//     levels per charge, and 2L + 7 order comparisons (plus fewer than 4C for
//     each refresh's heapify);
//   - charge, classes of 80 threads or more (past the lane's floor, 64):
//     O(1) — in the cycle world every charge appends at its lane's back and
//     only class-level heaps sift, but for the one a run's end makes on each
//     CPU (Machine.Run settles the quantum in flight, a charge of nothing
//     that leaves the thread below its lane's back);
//   - pick and refresh, C ≤ 11: every class struct read, no more, and no
//     refresh;
//   - pick, C > 11: at most 2·(8+√C) class structs per pick (a pick may run
//     long once; the refresh it asks for brings the drift, and the walk, back);
//   - refresh, C > 11: each follows a pick that visited more than 8+√C
//     classes, so 8+√C times the refreshes stays below the visits, and fewer
//     than one pick in eight refreshes.
func TestTable1AndFig7(t *testing.T) {
	for _, n := range []int{2, 10, 100, 1000, 10000} {
		for _, a := range []int{1, 4, 11, 12, 100, 1000} {
			if a > n {
				continue
			}
			for _, churn := range []bool{false, true} {
				m := NewMachine(SFS, 4, simtime.Millisecond, 1)
				for i := 0; i < n; i++ {
					b := workload.Inf()
					if churn && i%3 == 0 {
						b = workload.Interactive(2*simtime.Millisecond, 20*simtime.Millisecond)
					}
					m.Spawn(machine.SpawnConfig{Weight: float64(1 + i%a), Behavior: b})
				}
				m.Run(simtime.Time(2 * simtime.Second))
				c0, r0 := core.Counts, runqueue.Counts
				m.Run(simtime.Time(4 * simtime.Second))
				c1, r1 := core.Counts, runqueue.Counts
				charges, picks := c1.Charges.N-c0.Charges.N, c1.Picks.N-c0.Picks.N
				sifts, appends := r1.SiftLevels.N-r0.SiftLevels.N, r1.LaneAppends.N-r0.LaneAppends.N
				compares := r1.Compares.N - r0.Compares.N
				toHeap, toLane := r1.LaneToHeap.N-r0.LaneToHeap.N, r1.HeapToLane.N-r0.HeapToLane.N
				visits, refreshes := c1.ClassVisits.N-c0.ClassVisits.N, c1.Refreshes.N-c0.Refreshes.N
				t.Logf("n=%5d C=%4d churn=%-5v: %5d charges, %5.2f sift levels, %5.2f compares, %.2f appends, %.2f lane→heap, %.2f heap→lane each; %5d picks, %6.2f class visits each, %.4f refreshes",
					n, a, churn, charges, float64(sifts)/float64(charges), float64(compares)/float64(charges), float64(appends)/float64(charges),
					float64(toHeap)/float64(charges), float64(toLane)/float64(charges),
					picks, float64(visits)/float64(picks), float64(refreshes)/float64(picks))
				if charges < 1000 || picks < 1000 {
					t.Fatalf("n=%d C=%d: %d charges, %d picks in 2 simulated seconds on 4 CPUs", n, a, charges, picks)
				}
				log2 := func(x float64) float64 { return math.Log2(x) }
				bound := log2(float64(n)/float64(a)) + 1 + 2*(log2(float64(a))+1)
				if levels := float64(sifts) / float64(charges); !churn && levels > bound {
					t.Errorf("n=%d C=%d: %.2f sift levels per charge, more than one class-heap sift and two class-level ones", n, a, levels)
				}
				// Three sifts of L levels in all compare at most 2L + 6 times,
				// the lane's test against its back once, and a refresh's
				// heapify of C classes fewer than 4C times.
				if cmpBound := float64(charges)*(2*bound+7) + float64(refreshes)*4*float64(a); !churn && float64(compares) > cmpBound {
					t.Errorf("n=%d C=%d: %d comparisons, more than %.0f: the charges' sifts and the refreshes' heapifies within their bounds make", n, a, compares, cmpBound)
				}
				if !churn && n/a >= 80 && (appends < charges-4 || toHeap > 4 || float64(sifts) > float64(charges)*2*(log2(float64(a))+1)) {
					t.Errorf("n=%d C=%d: %d of %d charges appended at a lane's back, %d left a lane, %d sift levels: not O(1) in the class",
						n, a, appends, charges, toHeap, sifts)
				}
				if a <= 11 {
					if visits > picks*int64(a) || refreshes != 0 {
						t.Errorf("n=%d C=%d: %d class visits over %d picks and %d refreshes, want at most C per pick and none", n, a, visits, picks, refreshes)
					}
					continue
				}
				scan := 8 + math.Floor(math.Sqrt(float64(a)))
				if float64(visits) > 2*scan*float64(picks) || scan*float64(refreshes) > float64(visits) || 8*refreshes > picks {
					t.Errorf("n=%d C=%d: %d class visits and %d refreshes over %d picks, want at most %g visits a pick, %g visits a refresh and one refresh in 8 picks",
						n, a, visits, refreshes, picks, 2*scan, scan)
				}
			}
		}
	}
}
