package rt_test

// Cross-policy tests of the policy-generic sharded runtime: the same
// deterministic lockstep workload (FakeClock, Manual mode, 4 shards) runs
// under SFS, SFQ and Linux-style time sharing, end to end through dispatch,
// charge, blocking, weight changes and rebalancer migrations. The acceptance
// assertion reprises the paper's §4 comparison qualitatively: SFS and SFQ
// divide the machine proportionally (weighted Jain ≈ 1), time sharing
// ignores the weights (weighted Jain ≪ 1) — now measured on the runtime's
// own sharded code path instead of the simulated machine.

import (
	"testing"

	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/stride"
	"sfsched/internal/timeshare"
)

// livePolicies are the policy factories the cross-policy tests exercise.
// SFS is rt's default (nil Policy). The slice value for every drive is one
// timeshare tick so counter accounting advances under every policy.
var livePolicies = []struct {
	name         string
	policy       rt.Policy
	proportional bool // delivers weight-proportional shares
}{
	{"sfs", nil, true},
	{"sfq", func(cpus int) sched.Scheduler {
		return sfq.New(cpus, sfq.WithQuantum(20*simtime.Millisecond))
	}, true},
	{"stride", func(cpus int) sched.Scheduler {
		return stride.New(cpus, stride.WithQuantum(20*simtime.Millisecond))
	}, true},
	{"timeshare", func(cpus int) sched.Scheduler { return timeshare.New(cpus) }, false},
}

// runPolicySharded drives the 4:3:2:1 tier pattern on a 4-shard, 4-worker
// Manual runtime under the given policy, including a mid-run weight change
// that forces rebalancer migrations, and returns the weighted Jain index of
// the first phase (before the weight change) plus the migration count.
func runPolicySharded(t *testing.T, policy rt.Policy) (jain float64, migrations int64) {
	t.Helper()
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{
		Workers:  4,
		Sharding: rt.ShardingConfig{Shards: 4},
		Intake:   rt.IntakeConfig{QueueCap: 4},
		Policy:   policy,
		Quantum:  20 * simtime.Millisecond,
		Clock:    clock,
		Manual:   true,
	})
	defer r.Close()
	tenants := make([]*rt.Tenant, len(shardedWeights))
	for i, w := range shardedWeights {
		tn, err := r.Register("t", w)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	// Phase 1: steady balanced load. One tick per timeshare jiffy so the
	// 2.2-style counter accounting decrements under every policy.
	driveTicks(t, r, clock, tenants, 3000, 10*simtime.Millisecond, 64)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	services := make([]simtime.Duration, len(tenants))
	for i, tn := range tenants {
		services[i] = tn.Thread().Service
		if services[i] <= 0 {
			t.Fatalf("tenant %d starved in steady phase", i)
		}
	}
	jain = metrics.JainIndex(services, shardedWeights)
	// Phase 2: unbalance the shards so the rebalancer must migrate — the
	// end-to-end check that ranking (LagReporter or the generic lag
	// fallback) and frame translation (FrameTranslator or the no-op
	// fallback) work for this policy.
	if err := r.SetWeight(tenants[0], 1); err != nil {
		t.Fatal(err)
	}
	driveTicks(t, r, clock, tenants, 1000, 10*simtime.Millisecond, 64)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, tn := range tenants {
		if tn.Thread().Service <= services[i] {
			t.Fatalf("tenant %d received no service after the weight change", i)
		}
	}
	return jain, r.Migrations()
}

// TestCrossPolicySharded is the acceptance test for the policy-generic
// runtime: SFS, SFQ, stride and timeshare all run a Shards=4 workload end to
// end (dispatch, charge, weight change, migration), and the fairness
// ordering matches the paper — SFS ≈ SFQ (both ≈ 1), both ≫ timeshare.
func TestCrossPolicySharded(t *testing.T) {
	jains := make(map[string]float64, len(livePolicies))
	for _, pc := range livePolicies {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			jain, migrations := runPolicySharded(t, pc.policy)
			t.Logf("%s: weighted Jain %.4f, %d migrations", pc.name, jain, migrations)
			if migrations == 0 {
				t.Errorf("%s never migrated despite the forced imbalance", pc.name)
			}
			if pc.proportional && jain < 0.99 {
				t.Errorf("%s weighted Jain %.4f, want >= 0.99 (proportional policy)", pc.name, jain)
			}
			if !pc.proportional && jain > 0.90 {
				t.Errorf("%s weighted Jain %.4f, want <= 0.90 (weight-blind policy)", pc.name, jain)
			}
			jains[pc.name] = jain
		})
	}
	if t.Failed() {
		return
	}
	// The paper's qualitative ordering, on the runtime's own numbers.
	if sfs, sfqJ, ts := jains["sfs"], jains["sfq"], jains["timeshare"]; !(sfs > ts+0.05 && sfqJ > ts+0.05) {
		t.Errorf("fairness ordering broken: sfs %.4f, sfq %.4f, timeshare %.4f", sfs, sfqJ, ts)
	}
}

// TestShardStatsNonSFS pins the generalized metrics surface on a non-SFS
// sharded run: per-shard policy names, virtual times via sched.VirtualTimer
// where the policy has one (SFQ) and zero where it does not (timeshare),
// with the rest of the ShardStat fields consistent either way.
func TestShardStatsNonSFS(t *testing.T) {
	for _, name := range []string{"sfq", "timeshare"} {
		t.Run(name, func(t *testing.T) {
			var policy rt.Policy
			want := ""
			switch name {
			case "sfq":
				policy = func(cpus int) sched.Scheduler { return sfq.New(cpus) }
				want = "SFQ"
			case "timeshare":
				policy = func(cpus int) sched.Scheduler { return timeshare.New(cpus) }
				want = "timeshare"
			}
			clock := rt.NewFakeClock()
			r := rt.New(rt.Config{Workers: 4, Policy: policy,
				Clock: clock, Manual: true,
				Sharding: rt.ShardingConfig{Shards: 2},
				Intake:   rt.IntakeConfig{QueueCap: 4}})
			defer r.Close()
			tenants := make([]*rt.Tenant, len(shardedWeights))
			for i, w := range shardedWeights {
				tn, err := r.Register("t", w)
				if err != nil {
					t.Fatal(err)
				}
				tenants[i] = tn
			}
			driveTicks(t, r, clock, tenants, 500, 10*simtime.Millisecond, 0)
			stats := r.ShardStats()
			if len(stats) != 2 {
				t.Fatalf("%d shard stats, want 2", len(stats))
			}
			for _, ss := range stats {
				if ss.Policy != want {
					t.Errorf("shard %d policy %q, want %q", ss.Shard, ss.Policy, want)
				}
				if ss.Service <= 0 || ss.Tenants != 4 || ss.Workers != 2 {
					t.Errorf("implausible shard stat %+v", ss)
				}
				if name == "sfq" && ss.VirtualTime <= 0 {
					t.Errorf("shard %d virtual time %g, want > 0 for a fair-queueing policy after service",
						ss.Shard, ss.VirtualTime)
				}
				if name == "timeshare" && ss.VirtualTime != 0 {
					t.Errorf("shard %d virtual time %g, want 0 for a policy without one",
						ss.Shard, ss.VirtualTime)
				}
			}
			// Per-tenant stats name valid shards and carry service.
			for _, s := range r.Stats() {
				if s.Shard < 0 || s.Shard >= 2 || s.Service <= 0 {
					t.Errorf("implausible tenant stat %+v", s)
				}
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
