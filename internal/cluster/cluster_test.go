package cluster_test

// Tests of the cluster tier: the acceptance differential (8 Manual machines
// in lockstep vs one giant runtime, with forced migrations), the
// weight-conservation property under a random op sequence, the
// power-of-k-choices placement advantage on stubbed nodes, stats rollup,
// and a concurrent migration stress run.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sfsched/internal/cluster"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// driveCluster runs a Manual-mode cluster in lockstep: each tick dispatches
// every idle worker of every machine, advances the shared fake clock one
// slice, completes in (machine, worker) order, refills every tenant's
// backlog, and runs a migration pass every rebalanceEvery ticks.
func driveCluster(t *testing.T, c *cluster.Cluster, clock *rt.FakeClock,
	tenants []*cluster.Tenant, ticks int, slice simtime.Duration, rebalanceEvery int) {
	t.Helper()
	refill := func(tn *cluster.Tenant) {
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
		for m := 0; m < c.Machines(); m++ {
			r := c.Node(m).(*rt.Runtime)
			for w := 0; w < r.Workers(); w++ {
				if d := r.Dispatch(w); d != nil {
					ds = append(ds, d)
				}
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
			c.Rebalance()
		}
	}
}

// clusterWeights is the 4:3:2:1 tier pattern repeated 16 times: 64 tenants,
// total weight 160 across 16 workers.
func clusterWeights() []float64 {
	w := make([]float64, 0, 64)
	for i := 0; i < 16; i++ {
		w = append(w, 4, 3, 2, 1)
	}
	return w
}

// TestClusterDifferentialVsGiant is the acceptance check of the cluster
// tier: 8 Manual machines × 2 workers driven in lockstep — including a
// mid-run weight change that unbalances the machines and forces cross-
// machine migrations — must give every tenant a cumulative allocation
// within 10% of what one giant 16-worker runtime gives it on the same
// workload.
func TestClusterDifferentialVsGiant(t *testing.T) {
	weights := clusterWeights()
	const (
		slice      = 5 * simtime.Millisecond
		warm, rest = 3000, 3000
	)
	shift := func(set func(i int, w float64) error) {
		// Drop the first eight weight-4 tenants to weight 1: 24 weight
		// leaves whichever machines host them, forcing re-placement.
		for i := 0; i < 8; i++ {
			if err := set(i*4, 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Giant baseline: one machine with all 16 workers.
	clock := rt.NewFakeClock()
	giant := rt.New(rt.Config{Workers: 16, Quantum: 20 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true})
	defer giant.Close()
	gtenants := make([]*rt.Tenant, len(weights))
	for i, w := range weights {
		tn, err := giant.Register(fmt.Sprintf("t%02d", i), w)
		if err != nil {
			t.Fatal(err)
		}
		gtenants[i] = tn
	}
	gdrive := func(ticks int) {
		t.Helper()
		refill := func(tn *rt.Tenant) {
			for tn.Queued() < 2 {
				if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, tn := range gtenants {
			refill(tn)
		}
		for i := 0; i < ticks; i++ {
			var ds []*rt.Dispatched
			for w := 0; w < giant.Workers(); w++ {
				if d := giant.Dispatch(w); d != nil {
					ds = append(ds, d)
				}
			}
			clock.Advance(slice)
			for _, d := range ds {
				d.Complete(true)
			}
			for _, tn := range gtenants {
				refill(tn)
			}
		}
	}
	gdrive(warm)
	shift(func(i int, w float64) error { return giant.SetWeight(gtenants[i], w) })
	gdrive(rest)

	// Cluster: 8 machines × 2 workers on their own shared fake clock.
	cclock := rt.NewFakeClock()
	c, err := cluster.New(cluster.Config{
		Machines: 8, K: 2, Workers: 2,
		Quantum: 20 * simtime.Millisecond, Clock: cclock,
		QueueCap: 4, Manual: true, Tolerance: 0.02, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctenants := make([]*cluster.Tenant, len(weights))
	for i, w := range weights {
		tn, err := c.Register(fmt.Sprintf("t%02d", i), w)
		if err != nil {
			t.Fatal(err)
		}
		ctenants[i] = tn
	}
	driveCluster(t, c, cclock, ctenants, warm, slice, 32)
	// Steady state under stable weights: the cluster-wide rollup must be as
	// proportional as a single machine's.
	if jain := c.JainIndex(); jain < 0.98 {
		t.Errorf("cluster-wide Jain %.4f at steady state, want ≥ 0.98", jain)
	}
	shift(func(i int, w float64) error { return c.SetWeight(ctenants[i], w) })
	driveCluster(t, c, cclock, ctenants, rest, slice, 32)

	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Migrations() == 0 {
		t.Fatal("cluster never migrated despite the weight shift")
	}
	// Full-run weighted Jain is < 1 for ANY scheduler after a mid-run weight
	// change (half the service accrued under the old weights); the cluster
	// must land where the giant runtime lands.
	gj, cj := giant.JainIndex(), c.JainIndex()
	if d := cj - gj; d < -0.005 {
		t.Errorf("cluster Jain %.4f trails the giant runtime's %.4f", cj, gj)
	}
	worst := 0.0
	for i := range weights {
		g := gtenants[i].Thread().Service.Seconds()
		s := ctenants[i].Service().Seconds()
		if g <= 0 || s <= 0 {
			t.Fatalf("tenant %d starved (giant %.3fs, cluster %.3fs)", i, g, s)
		}
		diff := (s - g) / g
		if diff < 0 {
			diff = -diff
		}
		if diff > worst {
			worst = diff
		}
		if diff > 0.10 {
			t.Errorf("tenant %d diverges %.1f%% from the giant-runtime allocation (giant %.3fs, cluster %.3fs)",
				i, diff*100, g, s)
		}
	}
	t.Logf("migrations %d, worst divergence %.2f%%, cluster Jain %.4f",
		c.Migrations(), worst*100, c.JainIndex())
}

// TestClusterWeightConservation is the placement/migration property test: a
// seeded random sequence of register / unregister / setweight / rebalance
// ops never violates weight conservation — machines always carry exactly
// the weight the cluster's live bindings say they do.
func TestClusterWeightConservation(t *testing.T) {
	clock := rt.NewFakeClock()
	c, err := cluster.New(cluster.Config{
		Machines: 4, K: 2, Workers: 2, Clock: clock,
		QueueCap: 4, Manual: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := xrand.New(99)
	var live []*cluster.Tenant
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(10); {
		case r < 4: // register
			w := float64(1 + rng.Intn(8))
			tn, err := c.Register(fmt.Sprintf("p%03d", op), w)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, tn)
		case r < 6 && len(live) > 0: // unregister
			i := rng.Intn(len(live))
			if err := c.Unregister(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		case r < 8 && len(live) > 0: // setweight
			if err := c.SetWeight(live[rng.Intn(len(live))], float64(1+rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		default: // migrate
			c.Rebalance()
		}
		if op%25 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// stubNode scripts a machine for placement tests: it tracks only what Load
// reports. Register hands back a nil tenant — the placement path never
// dereferences it.
type stubNode struct {
	workers int
	weight  float64
	tenants int
}

func (s *stubNode) Register(name string, w float64) (*rt.Tenant, error) {
	s.tenants++
	s.weight += w
	return nil, nil
}
func (s *stubNode) Unregister(*rt.Tenant) error         { return nil }
func (s *stubNode) SetWeight(*rt.Tenant, float64) error { return nil }
func (s *stubNode) Load() rt.NodeLoad {
	return rt.NodeLoad{Workers: s.workers, Weight: s.weight, Tenants: s.tenants}
}
func (s *stubNode) Stats() []rt.TenantStat { return nil }
func (s *stubNode) Deport(*rt.Tenant) (rt.Departure, error) {
	return rt.Departure{}, rt.ErrMigrationRace
}
func (s *stubNode) Admit(rt.Departure) (*rt.Tenant, error) { return nil, nil }
func (s *stubNode) Drain()                                 {}
func (s *stubNode) Close()                                 {}
func (s *stubNode) CheckInvariants() error                 { return nil }

// TestKChoicesBeatsRandom pins the placement advantage the cluster is built
// on: over a batch of seeds, two-choice placement never ends with a more
// loaded worst machine than single-choice (random) placement, and beats it
// in aggregate — the balls-in-bins collapse from Θ(log n/log log n) to
// Θ(log log n).
func TestKChoicesBeatsRandom(t *testing.T) {
	const machines, balls = 16, 512
	maxLoad := func(k int, seed uint64) float64 {
		nodes := make([]cluster.Node, machines)
		for i := range nodes {
			nodes[i] = &stubNode{workers: 1}
		}
		c, err := cluster.Compose(cluster.Config{K: k, Manual: true, Seed: seed}, nodes...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < balls; i++ {
			if _, err := c.Register("b", 1); err != nil {
				t.Fatal(err)
			}
		}
		worst := 0.0
		for _, n := range nodes {
			if w := n.Load().Weight; w > worst {
				worst = w
			}
		}
		return worst
	}
	var sum1, sum2 float64
	for seed := uint64(1); seed <= 5; seed++ {
		m1, m2 := maxLoad(1, seed), maxLoad(2, seed)
		if m2 > m1 {
			t.Errorf("seed %d: two-choice max load %g exceeds random's %g", seed, m2, m1)
		}
		sum1 += m1
		sum2 += m2
	}
	mean := float64(balls) / machines
	if sum2 >= sum1 {
		t.Errorf("two-choice aggregate max load %g not better than random's %g", sum2, sum1)
	}
	if sum2/5 > mean+3 {
		t.Errorf("two-choice mean max load %.1f too far above the %.1f mean", sum2/5, mean)
	}
	t.Logf("mean max load: random %.1f, two-choice %.1f (ideal %.1f)", sum1/5, sum2/5, mean)
}

// TestClusterStatsRollup checks machine attribution and the cluster-wide
// share/Jain rollup on a small deterministic cluster.
func TestClusterStatsRollup(t *testing.T) {
	clock := rt.NewFakeClock()
	c, err := cluster.New(cluster.Config{
		Machines: 2, K: 2, Workers: 1, Clock: clock,
		QueueCap: 4, Manual: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.Register("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Register("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine() == b.Machine() {
		t.Fatalf("best-fit two-choice placement stacked both tenants on machine %d", a.Machine())
	}
	driveCluster(t, c, clock, []*cluster.Tenant{a, b}, 200, simtime.Millisecond, 0)
	stats := c.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d tenant stats, want 2", len(stats))
	}
	for _, st := range stats {
		if st.Share < 0.49 || st.Share > 0.51 {
			t.Errorf("tenant %s share %.3f, want ~0.5", st.Name, st.Share)
		}
		if st.Machine != 0 && st.Machine != 1 {
			t.Errorf("tenant %s attributed to machine %d", st.Name, st.Machine)
		}
	}
	if stats[0].Machine == stats[1].Machine {
		t.Error("both stats attribute the same machine")
	}
	ms := c.MachineStats()
	if len(ms) != 2 {
		t.Fatalf("got %d machine stats, want 2", len(ms))
	}
	var shares float64
	for _, m := range ms {
		if m.Tenants != 1 || m.Workers != 1 {
			t.Errorf("machine %d: %d tenants / %d workers, want 1/1", m.Machine, m.Tenants, m.Workers)
		}
		shares += m.Share
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("machine shares sum to %.3f, want 1", shares)
	}
	if jain := c.JainIndex(); jain < 0.999 {
		t.Errorf("Jain %.4f for two equal tenants in lockstep", jain)
	}
}

// TestMachineStatsFromOneSnapshot: at quiescence, the rollup's per-machine
// Jain index, computed from the machine's one Stats snapshot, is the
// machine's own JainIndex bit for bit, and its Service is that snapshot's sum.
func TestMachineStatsFromOneSnapshot(t *testing.T) {
	clock := rt.NewFakeClock()
	c, err := cluster.New(cluster.Config{
		Machines: 2, K: 2, Workers: 1, Clock: clock,
		QueueCap: 4, Manual: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var tenants []*cluster.Tenant
	for i, w := range []float64{1, 2, 5, 1, 3, 7} {
		tn, err := c.Register(fmt.Sprintf("t%d", i), w)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	driveCluster(t, c, clock, tenants, 37, simtime.Millisecond, 0)
	for i, m := range c.MachineStats() {
		r := c.Node(i).(*rt.Runtime)
		if want := r.JainIndex(); m.Jain != want || m.Jain == 1 {
			t.Errorf("machine %d: rollup Jain %v, machine's JainIndex %v (want equal and < 1)", i, m.Jain, want)
		}
		var service simtime.Duration
		for _, st := range r.Stats() {
			service += st.Service
		}
		if m.Service != service {
			t.Errorf("machine %d: rollup Service %v, Stats sum %v", i, m.Service, service)
		}
	}
}

// TestClusterErrors pins the sentinel error surface.
func TestClusterErrors(t *testing.T) {
	if _, err := cluster.New(cluster.Config{}); !errors.Is(err, cluster.ErrNoMachines) {
		t.Fatalf("New with no machines: %v, want ErrNoMachines", err)
	}
	if _, err := cluster.Compose(cluster.Config{}); !errors.Is(err, cluster.ErrNoMachines) {
		t.Fatalf("Compose with no nodes: %v, want ErrNoMachines", err)
	}
	clock := rt.NewFakeClock()
	c, err := cluster.New(cluster.Config{Machines: 1, Workers: 1, Clock: clock, Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := c.Register("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister(tn); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister(tn); !errors.Is(err, rt.ErrTenantClosed) {
		t.Fatalf("double Unregister: %v, want ErrTenantClosed", err)
	}
	if err := tn.SubmitTask(rt.Once(func() {})); !errors.Is(err, rt.ErrTenantClosed) {
		t.Fatalf("submit after Unregister: %v, want ErrTenantClosed", err)
	}
	if err := c.SetWeight(tn, 2); !errors.Is(err, rt.ErrTenantClosed) {
		t.Fatalf("SetWeight after Unregister: %v, want ErrTenantClosed", err)
	}
	c.Close()
	if _, err := c.Register("late", 1); !errors.Is(err, cluster.ErrClusterClosed) {
		t.Fatalf("Register after Close: %v, want ErrClusterClosed", err)
	}
}

// TestClusterMigrationStress exercises the concurrent path end to end: real
// workers, a fast background migrator, submitters pumping work and weight
// churn forcing moves, with rollups read throughout. The run must end with
// cluster invariants (weight conservation included) intact. The nightly
// race soak runs this under -race -count.
func TestClusterMigrationStress(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Machines: 4, K: 2, Workers: 2, QueueCap: 16,
		MigrateEvery: time.Millisecond, Tolerance: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const tenants = 16
	ts := make([]*cluster.Tenant, tenants)
	for i := range ts {
		tn, err := c.Register(fmt.Sprintf("s%02d", i), float64(1+i%4))
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = tn
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, tn := range ts {
		wg.Add(1)
		go func(i int, tn *cluster.Tenant) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := tn.SubmitTask(func(simtime.Duration) bool {
					time.Sleep(20 * time.Microsecond)
					return true
				}, rt.NoWait())
				if err != nil && !errors.Is(err, rt.ErrBackpressure) {
					t.Error(err)
					return
				}
			}
		}(i, tn)
	}
	wg.Add(1)
	go func() { // weight churn drives the migrator
		defer wg.Done()
		rng := xrand.New(11)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.SetWeight(ts[rng.Intn(tenants)], float64(1+rng.Intn(8))); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	deadline := time.After(250 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			c.Stats()
			c.JainIndex()
			c.Rebalance()
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("stress: %d migrations", c.Migrations())
}
