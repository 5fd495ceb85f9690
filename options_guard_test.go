package sfsched

// Arch guard 11 (the other ten are in arch_guard_test.go; this one reads the
// unexported flatten, so it sits inside the package): the runtime's options
// stay counted. A new knob, or a facade field that flatten forgets to carry,
// edits the lists below or fails.

import (
	"reflect"
	"slices"
	"testing"

	"sfsched/internal/cluster"
	"sfsched/internal/rt"
	"sfsched/internal/sched"
)

func TestOptionsStayCounted(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(rt.Config{}), []string{"Workers", "Shards", "Policy", "Quantum", "Clock",
			"QueueCap", "Manual", "Preempt", "RebalanceEvery", "Steal", "Enforce", "EnforceTick"}},
		{reflect.TypeOf(cluster.Config{}), []string{"Machines", "K", "Workers", "Policy", "Quantum",
			"Clock", "QueueCap", "Manual", "Preempt", "Enforce", "MigrateEvery", "Tolerance", "Seed"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			got = append(got, c.typ.Field(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v has fields %v, want the %d counted ones %v", c.typ, got, len(c.want), c.want)
		}
	}

	// Every leaf of the grouped facade config is set, so a field flatten
	// drops shows as a zero on the other side.
	full := RuntimeConfig{
		Workers: 1, Policy: func(int) sched.Scheduler { return nil }, Quantum: 1,
		Clock: rt.NewFakeClock(), Manual: true, Preempt: true,
		Enforcement: EnforcementConfig{Enabled: true, Tick: 1},
		Sharding:    ShardingConfig{Shards: 1, RebalanceEvery: 1, Steal: true},
		Intake:      IntakeConfig{QueueCap: 1},
	}
	leaves := 0
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		leaves++
		if v.IsZero() {
			t.Errorf("%s is zero in the guard's filled config; set it", name)
		}
	}
	walk("RuntimeConfig", reflect.ValueOf(full))
	flat := reflect.ValueOf(full.flatten())
	if leaves != flat.NumField() {
		t.Errorf("RuntimeConfig has %d options, rt.Config %d fields", leaves, flat.NumField())
	}
	for i := 0; i < flat.NumField(); i++ {
		if flat.Field(i).IsZero() {
			t.Errorf("flatten leaves rt.Config.%s zero", flat.Type().Field(i).Name)
		}
	}
}
