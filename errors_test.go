package sfsched_test

// Conformance test of the facade's sentinel error surface: every exported
// error matches itself under errors.Is, no two sentinels alias, and the
// operations documented to fail with each sentinel really return it.

import (
	"errors"
	"testing"

	"sfsched"
)

func TestSentinelErrorsConformance(t *testing.T) {
	sentinels := map[string]error{
		"ErrRuntimeClosed": sfsched.ErrRuntimeClosed,
		"ErrTenantClosed":  sfsched.ErrTenantClosed,
		"ErrBackpressure":  sfsched.ErrBackpressure,
		"ErrForeignTenant": sfsched.ErrForeignTenant,
		"ErrMigrationRace": sfsched.ErrMigrationRace,
		"ErrNoMachines":    sfsched.ErrNoMachines,
		"ErrClusterClosed": sfsched.ErrClusterClosed,
	}
	for name, err := range sentinels {
		if err == nil {
			t.Fatalf("%s is nil", name)
		}
		if !errors.Is(err, err) {
			t.Errorf("%s does not match itself under errors.Is", name)
		}
		if err.Error() == "" {
			t.Errorf("%s has an empty message", name)
		}
		for other, oerr := range sentinels {
			if name != other && errors.Is(err, oerr) {
				t.Errorf("%s aliases %s", name, other)
			}
		}
	}
}

// TestSentinelErrorsOperational drives each documented failure mode through
// the facade and requires the advertised sentinel, matched via errors.Is.
func TestSentinelErrorsOperational(t *testing.T) {
	clock := sfsched.NewFakeClock()
	r := sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers: 1, Clock: clock, Manual: true,
		Intake: sfsched.IntakeConfig{QueueCap: 1},
	})
	tn, err := r.Register("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
		t.Fatal(err)
	}
	if err := tn.SubmitTask(sfsched.RunOnce(func() {}), sfsched.NoWait()); !errors.Is(err, sfsched.ErrBackpressure) {
		t.Errorf("full backlog: %v, want ErrBackpressure", err)
	}
	r2 := sfsched.NewRuntime(sfsched.RuntimeConfig{Workers: 1, Clock: clock, Manual: true})
	if err := r2.Unregister(tn); !errors.Is(err, sfsched.ErrForeignTenant) {
		t.Errorf("foreign tenant: %v, want ErrForeignTenant", err)
	}
	d := r.Dispatch(0)
	if d == nil {
		t.Fatal("no dispatch")
	}
	if _, err := r.Deport(tn); !errors.Is(err, sfsched.ErrMigrationRace) {
		t.Errorf("Deport while running: %v, want ErrMigrationRace", err)
	}
	d.Complete(true)
	if err := r.Unregister(tn); err != nil {
		t.Fatal(err)
	}
	if err := tn.SubmitTask(sfsched.RunOnce(func() {})); !errors.Is(err, sfsched.ErrTenantClosed) {
		t.Errorf("unregistered tenant: %v, want ErrTenantClosed", err)
	}
	r.Close()
	r2.Close()
	if _, err := r.Register("late", 1); !errors.Is(err, sfsched.ErrRuntimeClosed) {
		t.Errorf("closed runtime: %v, want ErrRuntimeClosed", err)
	}

	if _, err := sfsched.NewCluster(sfsched.ClusterConfig{}); !errors.Is(err, sfsched.ErrNoMachines) {
		t.Errorf("no machines: %v, want ErrNoMachines", err)
	}
	c, err := sfsched.NewCluster(sfsched.ClusterConfig{
		Machines: 1, Workers: 1, Clock: clock, Manual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Register("late", 1); !errors.Is(err, sfsched.ErrClusterClosed) {
		t.Errorf("closed cluster: %v, want ErrClusterClosed", err)
	}
}
