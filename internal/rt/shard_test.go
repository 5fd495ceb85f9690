package rt_test

// Tests of sharded dispatch: deterministic lockstep drivers on a FakeClock
// exercise the per-shard runqueues and the rebalancer's migrations. The
// former statistical sharded-vs-central differential (an 8% per-tenant
// service bound) is superseded by the exact per-shard decision-trace test in
// structural_test.go (TestShardedDecisionTraceVsReplica); the one retained
// statistical differential is TestStealDifferentialVsCentral in
// steal_test.go, kept as a canary for workloads whose traces legitimately
// diverge.

import (
	"sync"
	"testing"
	"time"

	"sfsched/internal/core"
	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// driveTicks runs a Manual-mode runtime in lockstep: each tick dispatches
// every idle worker, advances the fake clock one slice, completes all slices
// in worker order, refills every tenant's backlog, and (optionally) runs a
// rebalance pass every rebalanceEvery ticks.
func driveTicks(t *testing.T, r *rt.Runtime, clock *rt.FakeClock, tenants []*rt.Tenant,
	ticks int, slice simtime.Duration, rebalanceEvery int) {
	t.Helper()
	refill := func(tn *rt.Tenant) {
		for tn.Queued() < 2 {
			if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tn := range tenants {
		refill(tn)
	}
	for i := 0; i < ticks; i++ {
		var ds []*rt.Dispatched
		for w := 0; w < r.Workers(); w++ {
			if d := r.Dispatch(w); d != nil {
				ds = append(ds, d)
			}
		}
		clock.Advance(slice)
		for _, d := range ds {
			d.Complete(true)
		}
		for _, tn := range tenants {
			refill(tn)
		}
		if rebalanceEvery > 0 && (i+1)%rebalanceEvery == 0 {
			r.Rebalance()
		}
	}
}

// shardedFixture registers the 4:3:2:1 weight pattern twice; the
// least-loaded placement rule splits it 10/10 across two shards.
var shardedWeights = []float64{4, 3, 2, 1, 4, 3, 2, 1}

func newSharded(t *testing.T, shards int) (*rt.Runtime, *rt.FakeClock, []*rt.Tenant) {
	t.Helper()
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{
		Workers:  4,
		Shards:   shards,
		Quantum:  20 * simtime.Millisecond,
		Clock:    clock,
		QueueCap: 4,
		Manual:   true,
	})
	tenants := make([]*rt.Tenant, len(shardedWeights))
	for i, w := range shardedWeights {
		tn, err := r.Register("t", w)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	return r, clock, tenants
}

// TestShardedProportionalShares drives two balanced shards in lockstep and
// requires globally proportional shares, near-ideal per-shard fairness, and
// consistent bookkeeping.
func TestShardedProportionalShares(t *testing.T) {
	r, clock, tenants := newSharded(t, 2)
	defer r.Close()
	driveTicks(t, r, clock, tenants, 3000, 5*simtime.Millisecond, 64)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	measured := make([]float64, len(stats))
	for i, s := range stats {
		if s.Service <= 0 {
			t.Fatalf("tenant %d starved", i)
		}
		measured[i] = s.Share
	}
	if worst := metrics.RatioError(measured, shardedWeights); worst > 0.03 {
		t.Fatalf("sharded share error %.2f%% exceeds 3%% (shares %v)", worst*100, measured)
	}
	for _, ss := range r.ShardStats() {
		if ss.Weight < 9.9 || ss.Weight > 10.1 {
			t.Errorf("shard %d weight %g, want ~10 (balanced placement)", ss.Shard, ss.Weight)
		}
		if ss.Jain < 0.999 {
			t.Errorf("shard %d Jain %.4f under steady lockstep", ss.Shard, ss.Jain)
		}
		if ss.Workers != 2 || ss.Tenants != 4 {
			t.Errorf("shard %d has %d workers / %d tenants, want 2/4", ss.Shard, ss.Workers, ss.Tenants)
		}
	}
}

// TestShardedMigrationConverges pins the dynamic half of what the former
// statistical differential covered: a mid-run weight change that unbalances
// the shards must trigger migrations and re-converge the sub-shares, with
// global proportionality intact afterward. (The static half — that a shard's
// decisions equal an isolated replica's — is now exact, in
// TestShardedDecisionTraceVsReplica.)
func TestShardedMigrationConverges(t *testing.T) {
	r, clock, tenants := newSharded(t, 2)
	defer r.Close()
	driveTicks(t, r, clock, tenants, 2000, 5*simtime.Millisecond, 64)
	// Unbalance: the heaviest tenant drops to weight 1 (sub-shares now
	// 7 vs 10); the rebalancer must move weight to re-converge.
	if err := r.SetWeight(tenants[0], 1); err != nil {
		t.Fatal(err)
	}
	driveTicks(t, r, clock, tenants, 4000, 5*simtime.Millisecond, 64)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.Migrations() == 0 {
		t.Fatal("sharded runtime never migrated despite the weight change")
	}
	ss := r.ShardStats()
	if d := ss[0].Weight - ss[1].Weight; d > 2 || d < -2 {
		t.Fatalf("sub-shares %g/%g never re-converged after the weight change",
			ss[0].Weight, ss[1].Weight)
	}
	for i, tn := range tenants {
		if tn.Thread().Service <= 0 {
			t.Fatalf("tenant %d starved across the migration", i)
		}
	}
}

// TestRebalanceMovesWeight checks the migration mechanics end to end:
// imbalanced sub-shares converge, tenant↔shard bindings move, queued work
// survives the move and keeps running on the new shard.
func TestRebalanceMovesWeight(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 4, Shards: 2, Quantum: 20 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true})
	defer r.Close()
	var tenants []*rt.Tenant
	for i := 0; i < 6; i++ {
		tn, err := r.Register("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
		// Queued work must migrate with the tenant.
		if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
			t.Fatal(err)
		}
	}
	// Alternating least-loaded placement: tenants 0,2,4 on shard 0.
	for i, tn := range tenants {
		if want := i % 2; tn.Shard() != want {
			t.Fatalf("tenant %d placed on shard %d, want %d", i, tn.Shard(), want)
		}
	}
	if err := r.SetWeight(tenants[0], 5); err != nil {
		t.Fatal(err)
	}
	if err := r.SetWeight(tenants[2], 5); err != nil {
		t.Fatal(err)
	}
	// Sub-shares now 11 vs 3; a pass should shed a heavy tenant (and then
	// fine-tune with a light one) toward the 7/7 target.
	if moved := r.Rebalance(); moved == 0 {
		t.Fatal("rebalance moved nothing off an 11/3 imbalance")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	ss := r.ShardStats()
	if d := ss[0].Weight - ss[1].Weight; d > 2 || d < -2 {
		t.Fatalf("sub-shares %g/%g still imbalanced after rebalance", ss[0].Weight, ss[1].Weight)
	}
	if r.Migrations() == 0 {
		t.Fatal("migration counter not advanced")
	}
	// Every tenant — including migrated ones — must still dispatch and
	// complete on its current shard.
	driveTicks(t, r, clock, tenants, 50, simtime.Millisecond, 0)
	for i, tn := range tenants {
		if tn.Thread().Service <= 0 {
			t.Fatalf("tenant %d received no service after rebalance", i)
		}
	}
}

// TestRebalanceSkipsPinnedTenants: a tenant mid-slice and a tenant with a
// blocked submitter both stay put; only free tenants migrate.
func TestRebalanceSkipsPinnedTenants(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 2, Shards: 2, Quantum: 20 * simtime.Millisecond,
		Clock: clock, QueueCap: 1, Manual: true})
	defer r.Close()
	var tenants []*rt.Tenant
	for i := 0; i < 4; i++ {
		tn, err := r.Register("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
		if err := tn.SubmitTask(func(simtime.Duration) bool { return false }, rt.NoWait()); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0 holds tenants 0 and 2; make both heavy so the planner wants
	// one of them gone.
	if err := r.SetWeight(tenants[0], 3); err != nil {
		t.Fatal(err)
	}
	if err := r.SetWeight(tenants[2], 3); err != nil {
		t.Fatal(err)
	}
	// Pin tenant 0 mid-slice (SFS picks it first: equal surplus, ties by
	// descending weight then ID).
	d := r.Dispatch(0)
	if d == nil || d.Tenant() != tenants[0] {
		t.Fatalf("expected tenant 0 dispatched on worker 0, got %+v", d)
	}
	// Pin tenant 2 with a blocked submitter (its single-slot backlog is
	// full).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := tenants[2].SubmitTask(rt.Once(func() {})); err != nil {
			t.Errorf("blocked submit: %v", err)
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the submitter park
	if moved := r.Rebalance(); moved != 0 {
		t.Fatalf("rebalance moved %d pinned tenants", moved)
	}
	if tenants[0].Shard() != 0 || tenants[2].Shard() != 0 {
		t.Fatalf("pinned tenants migrated (shards %d, %d)",
			tenants[0].Shard(), tenants[2].Shard())
	}
	// Unpin both: finish tenant 0's slice, then run tenant 2's continuation
	// to completion so the freed backlog slot wakes the parked submitter.
	clock.Advance(simtime.Millisecond)
	d.Complete(true)
	d2 := r.Dispatch(0)
	if d2 == nil || d2.Tenant() != tenants[2] {
		t.Fatal("expected tenant 2's continuation on worker 0")
	}
	clock.Advance(simtime.Millisecond)
	d2.Complete(true)
	wg.Wait()
	if moved := r.Rebalance(); moved == 0 {
		t.Fatal("rebalance still quiescent after tenants unpinned")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConfigValidation pins the static-configuration panics.
func TestShardedConfigValidation(t *testing.T) {
	mustPanic(t, "more shards than workers", func() {
		rt.New(rt.Config{Workers: 2, Shards: 4, Manual: true})
	})
	mustPanic(t, "policy CPU mismatch per shard", func() {
		// Each of the 2 shards owns 2 workers; a 4-CPU instance is wrong.
		rt.New(rt.Config{Workers: 4, Shards: 2, Manual: true,
			Policy: func(int) sched.Scheduler { return core.New(4) }})
	})
	mustPanic(t, "policy recycling one instance across shards", func() {
		shared := core.New(2)
		rt.New(rt.Config{Workers: 4, Shards: 2, Manual: true,
			Policy: func(int) sched.Scheduler { return shared }})
	})
}
