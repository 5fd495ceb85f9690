package sfsched

// Arch guard 11 (arch_guard_test.go holds the others): the options stay
// counted and spelled once. A new knob edits the lists below or fails, and
// the facade's RuntimeConfig is the runtime's own rt.Config, not a second
// struct to keep in step with it.

import (
	"reflect"
	"slices"
	"testing"

	"sfsched/internal/cluster"
	"sfsched/internal/machine"
	"sfsched/internal/rt"
)

// leaves names every settable value of a config type: its fields, with the
// fields of a nested group spelled Group.Field.
func leaves(typ reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

func TestOptionsStayCounted(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(rt.Config{}), []string{"Workers", "Policy", "Quantum", "Clock", "Manual", "Preempt",
			"Enforcement.Enabled", "Enforcement.Tick", "Sharding.Shards", "Sharding.Steal", "Intake.QueueCap"}},
		{reflect.TypeOf(cluster.Config{}), []string{"Machines", "K", "Workers", "Policy", "Quantum",
			"Clock", "QueueCap", "Manual", "Preempt", "Enforce", "MigrateEvery", "Tolerance", "Seed"}},
		{reflect.TypeOf(machine.Config{}), []string{"CPUs", "Scheduler", "DisableWakePreemption", "Seed"}},
	} {
		if got := leaves(c.typ, ""); !slices.Equal(got, c.want) {
			t.Errorf("%v has options %v, want the %d counted ones %v", c.typ, got, len(c.want), c.want)
		}
	}

	// One spelling: the facade's config types are the runtime's.
	for _, c := range []struct{ facade, runtime reflect.Type }{
		{reflect.TypeOf(RuntimeConfig{}), reflect.TypeOf(rt.Config{})},
		{reflect.TypeOf(EnforcementConfig{}), reflect.TypeOf(rt.EnforcementConfig{})},
		{reflect.TypeOf(ShardingConfig{}), reflect.TypeOf(rt.ShardingConfig{})},
		{reflect.TypeOf(IntakeConfig{}), reflect.TypeOf(rt.IntakeConfig{})},
	} {
		if c.facade != c.runtime {
			t.Errorf("the facade declares its own %v beside %v; alias it", c.facade, c.runtime)
		}
	}
}
