package readjust

// Tests of the placement planner: PlanBalance is a pure function (shard
// weight totals + per-shard movable tenant weights → moves), so its
// invariants — weight conservation, non-negative sub-shares, monotone
// imbalance — are checked directly and fuzzed (FuzzRebalance, run by CI's
// fuzz-smoke job).

import (
	"math"
	"testing"
)

// applyMoves replays a plan onto copies of the inputs and returns the
// resulting per-shard totals. It fails the test on malformed moves.
func applyMoves(t *testing.T, totals []float64, movable [][]float64, moves []BalanceMove) []float64 {
	t.Helper()
	cur := append([]float64(nil), totals...)
	type slot struct{ src, idx int }
	taken := make(map[slot]bool)
	for _, mv := range moves {
		if mv.Src < 0 || mv.Src >= len(cur) || mv.Dst < 0 || mv.Dst >= len(cur) {
			t.Fatalf("move references shard out of range: %+v", mv)
		}
		if mv.Src == mv.Dst {
			t.Fatalf("move with src == dst: %+v", mv)
		}
		if mv.Idx < 0 || mv.Idx >= len(movable[mv.Src]) {
			t.Fatalf("move references tenant out of range: %+v", mv)
		}
		if taken[slot{mv.Src, mv.Idx}] {
			t.Fatalf("tenant moved twice: %+v", mv)
		}
		taken[slot{mv.Src, mv.Idx}] = true
		w := movable[mv.Src][mv.Idx]
		cur[mv.Src] -= w
		cur[mv.Dst] += w
	}
	return cur
}

func imbalance(totals []float64, workers []int) float64 {
	var totW, totWeight float64
	for i := range totals {
		totW += float64(workers[i])
		totWeight += totals[i]
	}
	if totW == 0 {
		return 0
	}
	var sum float64
	for i := range totals {
		sum += math.Abs(totals[i] - totWeight*float64(workers[i])/totW)
	}
	return sum
}

func TestPlanRebalanceBalancedIsQuiet(t *testing.T) {
	moves := PlanBalance(
		[]float64{10, 10},
		[]int{2, 2},
		[][]float64{{4, 4, 1, 1}, {3, 3, 2, 2}})
	if len(moves) != 0 {
		t.Fatalf("balanced shards produced %d moves: %+v", len(moves), moves)
	}
}

func TestPlanRebalanceDegenerateInputs(t *testing.T) {
	if m := PlanBalance([]float64{5}, []int{2}, [][]float64{{5}}); m != nil {
		t.Fatalf("single shard planned moves: %+v", m)
	}
	if m := PlanBalance([]float64{0, 0}, []int{1, 1}, [][]float64{nil, nil}); m != nil {
		t.Fatalf("empty system planned moves: %+v", m)
	}
}

func TestPlanRebalanceMovesTowardTarget(t *testing.T) {
	totals := []float64{11, 3}
	workers := []int{2, 2}
	movable := [][]float64{{5, 5, 1}, {1, 1, 1}}
	moves := PlanBalance(totals, workers, movable)
	if len(moves) == 0 {
		t.Fatal("imbalanced shards planned no moves")
	}
	after := applyMoves(t, totals, movable, moves)
	if before, now := imbalance(totals, workers), imbalance(after, workers); now >= before {
		t.Fatalf("imbalance %g did not improve (was %g): moves %+v", now, before, moves)
	}
	// The best single move is a weight-5 tenant: 11/3 → 6/8.
	if moves[0].Src != 0 || movable[0][moves[0].Idx] != 5 {
		t.Fatalf("first move should shed a weight-5 tenant from shard 0, got %+v", moves[0])
	}
}

func TestPlanRebalanceRespectsWorkerProportions(t *testing.T) {
	// 3 workers vs 1: targets 12 and 4, not 8 and 8.
	totals := []float64{8, 8}
	workers := []int{3, 1}
	movable := [][]float64{{2, 2, 2, 2}, {2, 2, 2, 2}}
	moves := PlanBalance(totals, workers, movable)
	after := applyMoves(t, totals, movable, moves)
	if math.Abs(after[0]-12) > 2.1 || math.Abs(after[1]-4) > 2.1 {
		t.Fatalf("weights %v not drawn toward 12/4 targets (moves %+v)", after, moves)
	}
	for _, mv := range moves {
		if mv.Src != 1 || mv.Dst != 0 {
			t.Fatalf("move against the worker-count gradient: %+v", mv)
		}
	}
}

// FuzzRebalance checks the planner's safety invariants on arbitrary
// topologies: total weight is conserved, every per-shard sub-share stays
// non-negative, total imbalance never grows, and the plan stays within its
// move budget. Bytes decode as (#shards, then per shard: worker count,
// tenant count, tenant weight codes).
func FuzzRebalance(f *testing.F) {
	f.Add([]byte{2, 1, 3, 10, 20, 30, 1, 0})
	f.Add([]byte{3, 2, 2, 5, 200, 1, 1, 7, 2, 0})
	f.Add([]byte{4, 1, 0, 1, 1, 63, 1, 1, 1, 1, 2, 9, 9})
	f.Add([]byte{2, 4, 8, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 2 + int(next())%5 // 2..6 shards
		workers := make([]int, n)
		totals := make([]float64, n)
		movable := make([][]float64, n)
		for i := 0; i < n; i++ {
			workers[i] = 1 + int(next())%4
			k := int(next()) % 9
			for j := 0; j < k; j++ {
				w := 0.25 * float64(1+int(next())%64)
				movable[i] = append(movable[i], w)
				totals[i] += w
			}
			// Some weight may be pinned (running tenants, blocked
			// submitters): present in the total but not movable.
			totals[i] += 0.25 * float64(int(next())%16)
		}
		moves := PlanBalance(totals, workers, movable)
		if len(moves) > maxRebalanceMoves {
			t.Fatalf("%d moves exceed budget %d", len(moves), maxRebalanceMoves)
		}
		after := applyMoves(t, totals, movable, moves)
		var sumBefore, sumAfter float64
		for i := range totals {
			sumBefore += totals[i]
			sumAfter += after[i]
			if after[i] < -1e-9 {
				t.Fatalf("shard %d sub-share went negative: %g (moves %+v)", i, after[i], moves)
			}
		}
		if diff := math.Abs(sumBefore - sumAfter); diff > 1e-6*(1+sumBefore) {
			t.Fatalf("total weight not conserved: %g -> %g", sumBefore, sumAfter)
		}
		if before, now := imbalance(totals, workers), imbalance(after, workers); now > before+1e-9 {
			t.Fatalf("imbalance grew: %g -> %g (moves %+v)", before, now, moves)
		}
	})
}
