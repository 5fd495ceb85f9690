package sfsched

// Arch guard 11 (arch_guard_test.go holds the others): the options stay
// counted and spelled once. A new knob — a config field, a policy
// constructor's option or an optional scheduler capability — edits the lists
// below or fails, and the facade's RuntimeConfig is the runtime's own
// rt.Config, not a second struct to keep in step with it.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// capabilities names the interfaces internal/sched's non-test files declare
// besides Scheduler, sorted.
func capabilities(t *testing.T) []string {
	t.Helper()
	dir := filepath.Join("internal", "sched")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name != "Scheduler" {
				if _, ok := ts.Type.(*ast.InterfaceType); ok {
					out = append(out, ts.Name.Name)
				}
			}
			return true
		})
	}
	slices.Sort(out)
	return out
}

// policyOptions maps each package under internal/ to the exported functions
// its non-test files declare that return the package's own Option, sorted.
func policyOptions(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results.NumFields() != 1 {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
				out[f.Name.Name] = append(out[f.Name.Name], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range out {
		slices.Sort(names)
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
			"Clock", "QueueCap", "Manual", "Preempt", "Enforce", "MigrateEvery", "Seed"}},
		{reflect.TypeOf(machine.Config{}), []string{"CPUs", "Scheduler", "DisableWakePreemption", "Seed"}},
	} {
		if got := leaves(c.typ, ""); !slices.Equal(got, c.want) {
			t.Errorf("%v has options %v, want the %d counted ones %v", c.typ, got, len(c.want), c.want)
		}
	}

	// The policy constructors' options, from the source: SFS keeps the
	// readjustment ablation and nothing else beside its quantum.
	wantOpts := map[string][]string{
		"core":      {"WithQuantum", "WithoutReadjustment"},
		"vtq":       {"WithQuantum", "WithReadjustment"},
		"sfq":       {"WithQuantum", "WithReadjustment"},
		"bvt":       {"WithQuantum"},
		"stride":    {"WithQuantum"},
		"lottery":   {"WithQuantum"},
		"partition": {"WithQuantum", "WithRebalance"},
	}
	if got := policyOptions(t); !maps.EqualFunc(got, wantOpts, slices.Equal) {
		t.Errorf("the policy constructors take options %v, want the counted ones %v", got, wantOpts)
	}

	// The optional capabilities beside sched.Scheduler: one for the tag
	// family, one for batched admission. Every other policy is the bare
	// interface.
	if got, want := capabilities(t), []string{"BatchAdder", "Tagged"}; !slices.Equal(got, want) {
		t.Errorf("internal/sched declares the optional capabilities %v, want the counted ones %v", got, want)
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
