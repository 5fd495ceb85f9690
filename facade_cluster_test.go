package sfsched_test

// Facade tests of the cluster tier and the grouped RuntimeConfig: NewCluster
// end to end through exported names only, and the nested option groups
// reaching the internal knobs.

import (
	"testing"

	"sfsched"
)

// TestFacadeCluster exercises the cluster tier end to end through the
// facade: placement, the unified submit entry point, lockstep dispatch on
// the Manual machines, the rollups, and shutdown.
func TestFacadeCluster(t *testing.T) {
	clock := sfsched.NewFakeClock()
	c, err := sfsched.NewCluster(sfsched.ClusterConfig{
		Machines: 2, K: 2, Workers: 1, Clock: clock,
		QueueCap: 4, Manual: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Machines() != 2 {
		t.Fatalf("Machines() = %d, want 2", c.Machines())
	}
	a, err := c.Register("a", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Register("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine() == b.Machine() {
		t.Fatalf("two-choice placement stacked both tenants on machine %d", a.Machine())
	}
	for i := 0; i < 2; i++ {
		if err := a.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
			t.Fatal(err)
		}
		if err := b.SubmitTask(nil, sfsched.Preemptible(func(sfsched.SliceCtx) bool { return true })); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 2; tick++ {
		var ds []*sfsched.Dispatched
		for m := 0; m < c.Machines(); m++ {
			r := c.Node(m).(*sfsched.Runtime)
			if d := r.Dispatch(0); d != nil {
				ds = append(ds, d)
			}
		}
		clock.Advance(sfsched.Millisecond)
		for _, d := range ds {
			d.Complete(true)
		}
	}
	stats := c.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d tenant stats, want 2", len(stats))
	}
	for _, st := range stats {
		if st.Service <= 0 {
			t.Errorf("tenant %s got no service", st.Name)
		}
	}
	if ms := c.MachineStats(); len(ms) != 2 {
		t.Fatalf("got %d machine stats, want 2", len(ms))
	}
	if jain := c.JainIndex(); jain <= 0 || jain > 1 {
		t.Fatalf("Jain index %v out of range", jain)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeConfigGrouping pins the nested option groups: each grouped knob
// lands on the internal setting it names.
func TestFacadeConfigGrouping(t *testing.T) {
	clock := sfsched.NewFakeClock()

	r := sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers: 4, Clock: clock, Manual: true,
		Sharding: sfsched.ShardingConfig{Shards: 2},
	})
	if n := len(r.ShardStats()); n != 2 {
		t.Errorf("nested Sharding.Shards: got %d shards, want 2", n)
	}
	r.Close()

	// Intake.QueueCap bounds the backlog.
	r = sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers: 1, Clock: clock, Manual: true,
		Intake: sfsched.IntakeConfig{QueueCap: 2},
	})
	tn, err := r.Register("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := tn.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.SubmitTask(sfsched.RunOnce(func() {}), sfsched.NoWait()); err == nil {
		t.Error("nested Intake.QueueCap: third submit succeeded past the cap")
	}
	r.Close()

	// Enforcement.Enabled arms the enforcer (observable in Manual mode:
	// Enforce() runs an enforcement pass).
	r = sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers: 1, Clock: clock, Manual: true,
		Enforcement: sfsched.EnforcementConfig{Enabled: true, Tick: sfsched.Millisecond},
	})
	tn, err = r.Register("e", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.SubmitTask(func(sfsched.Duration) bool { return false }); err != nil {
		t.Fatal(err)
	}
	d := r.Dispatch(0)
	if d == nil {
		t.Fatal("no dispatch")
	}
	clock.Advance(sfsched.Second) // way past any slice
	r.Enforce()
	if !d.Detached() {
		t.Error("nested Enforcement.Enabled: expired plain slice was not handed off")
	}
	d.Complete(true)
	r.Close()
}
