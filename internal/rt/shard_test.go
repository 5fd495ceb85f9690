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
	"errors"
	"sync"
	"testing"
	"time"

	"sfsched/internal/core"
	"sfsched/internal/engine"
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
		Sharding: rt.ShardingConfig{Shards: shards},
		Intake:   rt.IntakeConfig{QueueCap: 4},
		Quantum:  20 * simtime.Millisecond,
		Clock:    clock,
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
		if j := jainOf(stats, func(s rt.TenantStat) bool { return s.Shard == ss.Shard }); j < 0.999 {
			t.Errorf("shard %d Jain %.4f under steady lockstep", ss.Shard, j)
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
	r := rt.New(rt.Config{Workers: 4, Quantum: 20 * simtime.Millisecond,
		Clock: clock, Manual: true,
		Sharding: rt.ShardingConfig{Shards: 2},
		Intake:   rt.IntakeConfig{QueueCap: 4}})
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
	r := rt.New(rt.Config{Workers: 2, Quantum: 20 * simtime.Millisecond,
		Clock: clock, Manual: true,
		Sharding: rt.ShardingConfig{Shards: 2},
		Intake:   rt.IntakeConfig{QueueCap: 1}})
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
		rt.New(rt.Config{Workers: 2, Manual: true,
			Sharding: rt.ShardingConfig{Shards: 4}})
	})
	mustPanic(t, "policy CPU mismatch per shard", func() {
		// Each of the 2 shards owns 2 workers; a 4-CPU instance is wrong.
		rt.New(rt.Config{Workers: 4, Manual: true,
			Policy:   func(int) sched.Scheduler { return core.New(4) },
			Sharding: rt.ShardingConfig{Shards: 2}})
	})
	mustPanic(t, "policy recycling one instance across shards", func() {
		shared := core.New(2)
		rt.New(rt.Config{Workers: 4, Manual: true,
			Policy:   func(int) sched.Scheduler { return shared },
			Sharding: rt.ShardingConfig{Shards: 2}})
	})
}

// foreignPick is core's SFS made to return a chosen thread from Pick: a policy
// naming a thread its shard does not own.
type foreignPick struct {
	*core.SFS
	next *sched.Thread
}

func (p *foreignPick) Pick(cpu int, now simtime.Time) *sched.Thread {
	if p.next != nil {
		return p.next
	}
	return p.SFS.Pick(cpu, now)
}

// TestDispatchChecksPickedOwner pins the check a dispatch makes on the tenant
// its picked thread names (sched.Thread.Owner): shard 0's policy picks the
// backlogged thread of a tenant bound to shard 1, or a thread with no owner,
// and Dispatch panics with a wrapped engine.ErrUnknownThread either way.
func TestDispatchChecksPickedOwner(t *testing.T) {
	for _, tc := range []struct {
		name string
		pick func(foreign *rt.Tenant) *sched.Thread
	}{
		{"tenant of another shard", func(foreign *rt.Tenant) *sched.Thread { return foreign.Thread() }},
		{"no owner", func(*rt.Tenant) *sched.Thread {
			return &sched.Thread{ID: 1 << 20, Weight: 1, Phi: 1, CPU: sched.NoCPU, LastCPU: sched.NoCPU}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var policies []*foreignPick
			// The panic leaves shard 0 locked, so r is never closed; a Manual
			// runtime runs no goroutine to leak.
			r := rt.New(rt.Config{Workers: 2, Manual: true, Clock: rt.NewFakeClock(),
				Policy: func(cpus int) sched.Scheduler {
					p := &foreignPick{SFS: core.New(cpus)}
					policies = append(policies, p)
					return p
				},
				Sharding: rt.ShardingConfig{Shards: 2}})
			own, _ := r.Register("own", 1)
			foreign, _ := r.Register("foreign", 1)
			if own.Shard() != 0 || foreign.Shard() != 1 {
				t.Fatalf("tenants placed on shards %d and %d, want 0 and 1", own.Shard(), foreign.Shard())
			}
			for _, tn := range []*rt.Tenant{own, foreign} {
				if err := tn.SubmitTask(func(simtime.Duration) bool { return true }); err != nil {
					t.Fatal(err)
				}
			}
			policies[0].next = tc.pick(foreign)
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, engine.ErrUnknownThread) {
					t.Fatalf("shard 0 dispatched %v: recovered %v, want a wrapped engine.ErrUnknownThread",
						policies[0].next, err)
				}
			}()
			r.Dispatch(0)
		})
	}
}

// TestSingleWorkerShardNeverSweeps is flood's shape in Manual mode: two
// shards of one worker each, 2 048 tenants weighing 1–7 (seven φ-classes a
// shard, so a pick that walked the classes would refresh their drifted keys).
// A one-worker shard picks only while nothing on it runs, so every pick finds
// the holder of v waiting and returns it without reading the surplus heap:
// no instance may sweep. A driver that left the completed thread marked
// running at the next pick sends that pick down the walk.
func TestSingleWorkerShardNeverSweeps(t *testing.T) {
	const tenants, cycles = 2048, 20000
	clock := rt.NewFakeClock()
	var kernels []*core.SFS
	r := rt.New(rt.Config{Workers: 2, Clock: clock, Manual: true,
		Policy: func(cpus int) sched.Scheduler {
			s := core.New(cpus, core.WithQuantum(20*simtime.Millisecond))
			kernels = append(kernels, s)
			return s
		},
		Sharding: rt.ShardingConfig{Shards: 2},
		Intake:   rt.IntakeConfig{QueueCap: 4}})
	defer r.Close()
	for i := 0; i < tenants; i++ {
		tn, err := r.Register("t", float64(1+i%7))
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.SubmitTask(rt.Once(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cycles; i++ {
		for w := 0; w < r.Workers(); w++ {
			d := r.Dispatch(w)
			if d == nil {
				t.Fatalf("cycle %d: worker %d found nothing to run", i, w)
			}
			clock.Advance(simtime.Duration(1+(i+w)%5) * simtime.Millisecond)
			d.Complete(false) // the task stays at the head: the tenant stays runnable
		}
	}
	if len(kernels) != 2 {
		t.Fatalf("%d SFS instances for 2 shards", len(kernels))
	}
	for i, s := range kernels {
		st := s.Stats()
		if st.Decisions < cycles || st.SurplusSweeps != 0 {
			t.Errorf("shard %d: %d sweeps over %d picks, want 0 over at least %d", i, st.SurplusSweeps, st.Decisions, cycles)
		}
	}
}
