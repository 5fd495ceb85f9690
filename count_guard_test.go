//go:build !sfscount

package sfsched_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
	"unsafe"

	"sfsched/internal/core"
	"sfsched/internal/runqueue"
)

// TestCountersCompileAway keeps the sfscount build tag's counters out of the
// default build: there a runqueue.Counter is an empty struct whose Inc has an
// empty body, so every Counts.….Inc() in core and runqueue inlines to nothing
// and the Counts variables occupy no memory.
func TestCountersCompileAway(t *testing.T) {
	if s := unsafe.Sizeof(runqueue.Counter{}); s != 0 {
		t.Errorf("runqueue.Counter is %d bytes in the default build, want 0", s)
	}
	if s := unsafe.Sizeof(runqueue.Counts) + unsafe.Sizeof(core.Counts); s != 0 {
		t.Errorf("runqueue.Counts and core.Counts take %d bytes in the default build, want 0", s)
	}
	path := filepath.Join("internal", "runqueue", "count_off.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	incs := 0
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "Inc" {
			incs++
			if len(fn.Body.List) != 0 {
				t.Errorf("%s: Counter.Inc has a body in the default build", path)
			}
		}
	}
	if incs != 1 {
		t.Errorf("%s declares %d Inc methods, want 1; update the guard", path, incs)
	}
}
