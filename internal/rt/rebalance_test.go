package rt

// White-box tests of the rebalance planner: PlanBalance is a pure function
// (shard weight totals + per-shard movable tenant weights → moves), so its
// invariants — weight conservation, non-negative sub-shares, monotone
// imbalance — are checked directly and fuzzed (FuzzRebalance, run by CI's
// fuzz-smoke job). The movability rule every move obeys is checked last.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/timeshare"
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

// TestRebalanceUntaggedMovesInThreadIDOrder: time sharing keeps no virtual
// time, so its tenants have no surplus and Rebalance offers a shard's
// candidates in thread-ID order. Shard 0 holds a, c and e (weight 1 each)
// against shard 1's one tenant, and one move balances the pair; a has the
// least service and e the most, so a pass that ranked by lifetime service
// minus entitlement would move e instead of a.
func TestRebalanceUntaggedMovesInThreadIDOrder(t *testing.T) {
	clock := NewFakeClock()
	r := New(Config{Workers: 2, Manual: true, Clock: clock,
		Policy:   func(cpus int) sched.Scheduler { return timeshare.New(cpus) },
		Sharding: ShardingConfig{Shards: 2}})
	defer r.Close()
	var tns []*Tenant
	for i := 0; i < 6; i++ {
		tn, err := r.Register(fmt.Sprintf("t%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if tn.Shard() != i%2 {
			t.Fatalf("tenant %d placed on shard %d, want %d", i, tn.Shard(), i%2)
		}
		tns = append(tns, tn)
	}
	a, c, e := tns[0], tns[2], tns[4]
	for _, run := range []struct {
		tn  *Tenant
		ran simtime.Duration
	}{{c, simtime.Millisecond}, {e, 3 * simtime.Millisecond}} {
		if err := run.tn.SubmitTask(Once(func() {})); err != nil {
			t.Fatal(err)
		}
		d := r.Dispatch(0)
		if d == nil || d.Tenant() != run.tn {
			t.Fatal("worker 0 did not dispatch the one backlogged tenant")
		}
		clock.Advance(run.ran)
		d.Complete(true)
	}
	if a.Service() != 0 || c.Service() >= e.Service() {
		t.Fatalf("services a %v, c %v, e %v: want a none and c below e", a.Service(), c.Service(), e.Service())
	}
	for _, tn := range []*Tenant{tns[3], tns[5]} {
		if err := r.Unregister(tn); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Rebalance(); n != 1 {
		t.Fatalf("Rebalance migrated %d tenants, want 1", n)
	}
	if a.Shard() != 1 || c.Shard() != 0 || e.Shard() != 0 {
		t.Errorf("shards a %d, c %d, e %d after the pass, want 1, 0, 0: the lowest thread ID moves",
			a.Shard(), c.Shard(), e.Shard())
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceScratchHoldsNoTenant: Rebalance's reused working set, and the
// tenant list Stats sorts, must not keep a tenant reachable
// between calls — not in their live length, not in their spare capacity — or
// an unregistered tenant (its closures, its backlog) would stay pinned until a
// later call happened to overwrite the slot.
func TestRebalanceScratchHoldsNoTenant(t *testing.T) {
	r := New(Config{Workers: 2, Manual: true, Clock: NewFakeClock(),
		Sharding: ShardingConfig{Shards: 2}})
	defer r.Close()
	var tenants []*Tenant
	for i := 0; i < 6; i++ {
		tn, err := r.Register("t", float64(1+i))
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	r.Rebalance()
	if err := r.Unregister(tenants[0]); err != nil {
		t.Fatal(err)
	}
	r.Rebalance()
	r.Stats()
	if cap(r.frozen) == 0 {
		t.Fatal("Stats kept no tenant list; the check below would be vacuous")
	}
	for i, reg := range r.frozen[:cap(r.frozen)] {
		if reg.tn != nil {
			t.Errorf("Stats' tenant list slot %d still holds tenant %d", i, reg.id)
		}
	}
	s := &r.rebal
	if cap(s.cands) == 0 {
		t.Fatal("Rebalance kept no candidate scratch; the check below would be vacuous")
	}
	for i, c := range s.cands[:cap(s.cands)] {
		if c.tn != nil {
			t.Errorf("candidate scratch slot %d still holds tenant %d", i, c.tn.th.ID)
		}
	}
	for sh, h := range s.handles {
		for i, tn := range h[:cap(h)] {
			if tn != nil {
				t.Errorf("shard %d handle slot %d still holds tenant %d", sh, i, tn.th.ID)
			}
		}
	}
}

// TestPinnedTenantsStay is the movability rule, one row per pin of
// Tenant.pinned: for each, Rebalance leaves the tenant where it is, TrySteal
// skips it and Deport refuses it. Shard 0 holds p (weight 1, backlogged, so
// ready to steal) and q (weight 4, idle), shard 1 holds one idle tenant of
// weight 1: p is the one move that narrows the 5:1 split, and the one
// tenant a thief on shard 1 can take, so a pin left out of the rule moves it.
// The unpinned row shows that both would.
func TestPinnedTenantsStay(t *testing.T) {
	setup := func(t *testing.T) (*Runtime, *FakeClock, *Tenant) {
		clock := NewFakeClock()
		r := New(Config{Workers: 2, Manual: true,
			Clock: clock, Quantum: simtime.Millisecond,
			Enforcement: EnforcementConfig{Enabled: true},
			Sharding:    ShardingConfig{Shards: 2, Steal: true},
			Intake:      IntakeConfig{QueueCap: 1}})
		t.Cleanup(r.Close)
		var tns []*Tenant
		for _, w := range []float64{1, 1, 4} { // p → shard 0, then shard 1, then q → shard 0 on the tie
			tn, err := r.Register("t", w)
			if err != nil {
				t.Fatal(err)
			}
			tns = append(tns, tn)
		}
		p := tns[0]
		if p.Shard() != 0 || tns[1].Shard() != 1 || tns[2].Shard() != 0 {
			t.Fatalf("placement %d/%d/%d, want 0/1/0", p.Shard(), tns[1].Shard(), tns[2].Shard())
		}
		if err := p.SubmitTask(Once(func() {})); err != nil {
			t.Fatal(err)
		}
		return r, clock, p
	}
	for _, op := range []string{"Rebalance", "TrySteal"} {
		t.Run("unpinned/"+op, func(t *testing.T) {
			r, _, p := setup(t)
			if op == "Rebalance" {
				r.Rebalance()
			} else {
				r.TrySteal(1)
			}
			if p.Shard() != 1 {
				t.Fatalf("%s left an unpinned p on shard %d: the rows below prove nothing", op, p.Shard())
			}
		})
	}
	cases := []struct {
		name       string
		pin        func(t *testing.T, r *Runtime, clock *FakeClock, p *Tenant)
		wantDeport error
	}{
		{"closing", func(t *testing.T, r *Runtime, clock *FakeClock, p *Tenant) {
			// Unregister and Deport finalize a tenant no slice holds in the
			// lock hold that closes it, so the flag is set here by hand.
			sh := p.lockShard()
			p.closing.Store(true)
			sh.mu.Unlock()
		}, ErrTenantClosed},
		{"mid-slice", func(t *testing.T, r *Runtime, clock *FakeClock, p *Tenant) {
			if d := r.Dispatch(0); d == nil || d.Tenant() != p {
				t.Fatal("worker 0 did not dispatch p")
			}
		}, ErrMigrationRace},
		{"detached", func(t *testing.T, r *Runtime, clock *FakeClock, p *Tenant) {
			d := r.Dispatch(0)
			clock.Advance(2 * simtime.Millisecond)
			r.Enforce()
			if d == nil || !d.Detached() {
				t.Fatal("the enforcer did not hand p's slice off")
			}
		}, ErrMigrationRace},
		{"blocked submitter", func(t *testing.T, r *Runtime, clock *FakeClock, p *Tenant) {
			done := make(chan error, 1)
			go func() { done <- p.SubmitTask(Once(func() {})) }()
			for waiting := false; !waiting; {
				sh := p.lockShard()
				waiting = p.waiters > 0
				sh.mu.Unlock()
			}
			t.Cleanup(func() {
				// Close wakes the submitter with ErrRuntimeClosed. It reaches
				// only tenants still on a shard, so the broadcast covers a p
				// that a broken rule let Deport finalize.
				r.Close()
				sh := p.lockShard()
				p.notFull.Broadcast()
				sh.mu.Unlock()
				<-done
			})
		}, ErrMigrationRace},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, clock, p := setup(t)
			c.pin(t, r, clock, p)
			if n := r.Rebalance(); n != 0 || p.Shard() != 0 {
				t.Errorf("Rebalance migrated %d and left p on shard %d, want 0 and shard 0", n, p.Shard())
			}
			if r.TrySteal(1) || p.Shard() != 0 {
				t.Errorf("TrySteal took a tenant, p on shard %d", p.Shard())
			}
			if _, err := r.Deport(p); !errors.Is(err, c.wantDeport) {
				t.Errorf("Deport: %v, want %v", err, c.wantDeport)
			}
		})
	}
}
