package sfsched_test

// Architecture guard for the engine seam: internal/engine owns ALL dispatch
// charge arithmetic, and the two clock drivers (internal/machine, internal/rt)
// must route every decision through it. The guard parses the drivers' sources
// and fails if either stops importing the engine or reaches around it —
// calling a scheduler's Charge/InterimCharge directly, or mutating a Slice's
// accounting fields — which would let the historical duplicated-remainder
// arithmetic creep back in and silently re-fork the decision cores that the
// structural golden tests assume are one.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const enginePath = "sfsched/internal/engine"

// driverSources yields the non-test .go files of one driver package.
func driverSources(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		t.Fatalf("no sources under %s", dir)
	}
	return files
}

// chargeCalls and sliceWrites are the seam violations: direct scheduler
// charge calls and assignments to engine.Slice accounting fields.
var (
	forbiddenCalls  = map[string]bool{"Charge": true, "InterimCharge": true}
	forbiddenWrites = map[string]bool{"Charged": true, "LastCharge": true}
)

func auditDriver(t *testing.T, dir string) {
	t.Helper()
	fset := token.NewFileSet()
	importsEngine := false
	for _, path := range driverSources(t, dir) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == enginePath {
				importsEngine = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && forbiddenCalls[sel.Sel.Name] {
					t.Errorf("%s: direct scheduler %s call bypasses the engine",
						fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && forbiddenWrites[sel.Sel.Name] {
						t.Errorf("%s: write to Slice.%s outside the engine",
							fset.Position(lhs.Pos()), sel.Sel.Name)
					}
				}
			}
			return true
		})
	}
	if !importsEngine {
		t.Errorf("%s does not import %s: driver detached from the shared decision core", dir, enginePath)
	}
}

// TestArchitectureEngineSeam pins the multi-layer invariant directly: both
// clock drivers import the engine, and neither re-implements its charge
// settlement.
func TestArchitectureEngineSeam(t *testing.T) {
	for _, dir := range []string{
		filepath.Join("internal", "machine"),
		filepath.Join("internal", "rt"),
	} {
		t.Run(dir, func(t *testing.T) { auditDriver(t, dir) })
	}
}

// TestEngineOwnsChargeArithmetic is the inverse direction: the engine itself
// must still contain the charge calls (exactly the interim-or-fallback pair
// plus the settlement), so the forbidden-token list above cannot rot into
// vacuous truth if the methods are renamed.
func TestEngineOwnsChargeArithmetic(t *testing.T) {
	fset := token.NewFileSet()
	calls := map[string]int{}
	for _, path := range driverSources(t, filepath.Join("internal", "engine")) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && forbiddenCalls[sel.Sel.Name] {
					calls[sel.Sel.Name]++
				}
			}
			return true
		})
	}
	if calls["Charge"] == 0 || calls["InterimCharge"] == 0 {
		t.Fatalf("engine no longer calls the charge methods the guard forbids elsewhere (%v); update the guard's token list", calls)
	}
}

// TestGPSTagPoliciesStayParameterisations keeps the GPS-tag algebra from
// forking again: internal/sfq, internal/bvt and internal/stride hand
// internal/vtq a Policy and nothing else, so none of them may own a run queue
// or a φ tracker, or define one of the kernel's operations. The inverse
// direction — the kernel still defines them — keeps the method list from
// rotting into vacuous truth after a rename.
func TestGPSTagPoliciesStayParameterisations(t *testing.T) {
	const kernelPath = "sfsched/internal/vtq"
	kernelOps := []string{"Add", "Remove", "Charge", "Pick"}
	// scan returns the import paths and the method names of dir's non-test
	// sources.
	scan := func(dir string) (imports, methods map[string]bool) {
		imports, methods = map[string]bool{}, map[string]bool{}
		fset := token.NewFileSet()
		for _, path := range driverSources(t, dir) {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				imports[strings.Trim(imp.Path.Value, `"`)] = true
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
					methods[fn.Name.Name] = true
				}
			}
		}
		return imports, methods
	}
	for _, pkg := range []string{"sfq", "bvt", "stride"} {
		imports, methods := scan(filepath.Join("internal", pkg))
		if !imports[kernelPath] {
			t.Errorf("internal/%s does not import %s", pkg, kernelPath)
		}
		for _, owned := range []string{"sfsched/internal/runqueue", "sfsched/internal/phi"} {
			if imports[owned] {
				t.Errorf("internal/%s imports %s; the queue and the φ tracker belong to the kernel", pkg, owned)
			}
		}
		for _, op := range kernelOps {
			if methods[op] {
				t.Errorf("internal/%s defines its own %s; the GPS-tag algebra has one definition, in %s", pkg, op, kernelPath)
			}
		}
	}
	_, kernel := scan(filepath.Join("internal", "vtq"))
	for _, op := range kernelOps {
		if !kernel[op] {
			t.Errorf("%s no longer defines %s; update the guard's method list", kernelPath, op)
		}
	}
}

// TestWeightQueueStaysLogarithmic keeps the linear insert off the wake-up
// path: internal/phi's weight queue is a runqueue.Heap (the keyed form, on
// −w), and the package constructs no runqueue.List.
func TestWeightQueueStaysLogarithmic(t *testing.T) {
	fset := token.NewFileSet()
	made := map[string]int{}
	for _, path := range driverSources(t, filepath.Join("internal", "phi")) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "runqueue" {
					made[sel.Sel.Name]++
				}
			}
			return true
		})
	}
	if made["NewList"] > 0 || made["List"] > 0 {
		t.Errorf("internal/phi uses runqueue.List (%v): the weight queue's insert is O(n) again", made)
	}
	if made["NewKeyedHeap"] == 0 {
		t.Errorf("internal/phi no longer builds a keyed runqueue.Heap (%v); update the guard", made)
	}
}

// TestOneSiftPerCharge keeps the second per-thread sift off the charge and the
// boxing off the simulator's event queue: a runnable thread sits in one kernel
// queue, its φ-class heap, so internal/core's SFS struct holds no queue of
// threads of its own — its heaps are over classes — and nothing in the package
// is called byStart, the per-thread start-tag heap v was once read from; and
// non-test internal/machine does not import container/heap, whose
// Push(any)/Pop() any allocate per event.
func TestOneSiftPerCharge(t *testing.T) {
	fset := token.NewFileSet()
	classHeaps := 0
	for _, path := range driverSources(t, filepath.Join("internal", "core")) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "byStart" {
					t.Errorf("%s: a byStart in internal/core: a charge sifts two per-thread heaps again", fset.Position(n.Pos()))
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || n.Name.Name != "SFS" {
					return true
				}
				for _, field := range st.Fields.List {
					queue := false // a runqueue.Heap[…] or runqueue.List[…], by pointer or value
					ast.Inspect(field.Type, func(n ast.Node) bool {
						if ix, ok := n.(*ast.IndexExpr); ok {
							if sel, ok := ix.X.(*ast.SelectorExpr); ok {
								if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "runqueue" {
									queue = true
									if elem, ok := ix.Index.(*ast.StarExpr); ok {
										if of, ok := elem.X.(*ast.SelectorExpr); ok && of.Sel.Name == "Thread" {
											t.Errorf("%s: SFS.%s is a queue of threads beside the φ-class heaps", fset.Position(field.Pos()), field.Names[0].Name)
										}
									}
								}
							}
						}
						return true
					})
					if queue {
						classHeaps++
					}
				}
			}
			return true
		})
	}
	if classHeaps == 0 {
		t.Error("internal/core's SFS struct declares no runqueue queue at all; update the guard")
	}
	for _, path := range driverSources(t, filepath.Join("internal", "machine")) {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "container/heap" {
				t.Errorf("%s imports container/heap: the event queue boxes every event again", path)
			}
		}
	}
}

// TestOnePickPath keeps the kernel from forking again: SFS.Pick makes exactly
// one call to a pick… method, and internal/core declares exactly one. A second
// way to choose a thread (the paper's §3.2 heuristic was one for 21 PRs) wraps
// the kernel from outside, as internal/experiments/fig3.go does.
func TestOnePickPath(t *testing.T) {
	fset := token.NewFileSet()
	declared, called := 0, -1
	for _, path := range driverSources(t, filepath.Join("internal", "core")) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasPrefix(fn.Name.Name, "pick") {
				declared++
			}
			if fn.Name.Name != "Pick" || fn.Recv == nil {
				continue
			}
			called = 0
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "pick") {
						called++
					}
				}
				return true
			})
		}
	}
	if called == -1 {
		t.Fatal("internal/core has no Pick method; update the guard")
	}
	if declared != 1 || called != 1 {
		t.Errorf("internal/core declares %d pick… functions and Pick calls %d, want 1 and 1: one pick path through the kernel", declared, called)
	}
}

// TestOneOrderedQueue keeps the schedulers on one ordered-queue
// implementation: outside internal/runqueue no non-test file of the root
// module names runqueue.List or runqueue.NewList (the nested benchmark module,
// cmd/sfsbench, prices the list against the heap and is the reason the type
// still exists).
func TestOneOrderedQueue(t *testing.T) {
	fset := token.NewFileSet()
	heapUsers := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("cmd", "sfsbench") || path == filepath.Join("internal", "runqueue") || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		usesHeap := false
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "runqueue" {
				switch sel.Sel.Name {
				case "List", "NewList":
					t.Errorf("%s: runqueue.%s: a second ordered-queue implementation under a scheduler again", fset.Position(sel.Pos()), sel.Sel.Name)
				case "Heap":
					usesHeap = true
				}
			}
			return true
		})
		if usesHeap {
			heapUsers++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if heapUsers < 3 {
		t.Errorf("only %d files outside internal/runqueue name runqueue.Heap (core, phi and vtq did); update the guard", heapUsers)
	}
}

// TestPickAndSiftStayOffTheElement keeps two per-operation indirections from
// coming back. A sift level of runqueue.Heap records the moved element's
// position through the handle pointer cached in the heap position: up, down
// and set contain no call to RunqueueHandle (a dictionary call per level — the
// method is generic). And the simulator finds a picked thread's task by
// Thread.ID in a slice: non-test internal/machine declares no
// map[*sched.Thread]… (a hashed lookup per dispatch).
func TestPickAndSiftStayOffTheElement(t *testing.T) {
	fset := token.NewFileSet()
	sifts := map[string]bool{"up": false, "down": false, "set": false}
	for _, path := range driverSources(t, filepath.Join("internal", "runqueue")) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if ix, ok := recv.(*ast.IndexExpr); ok {
				recv = ix.X
			}
			if id, ok := recv.(*ast.Ident); !ok || id.Name != "Heap" {
				continue
			}
			if _, sift := sifts[fn.Name.Name]; !sift {
				continue
			}
			sifts[fn.Name.Name] = true
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "RunqueueHandle" {
					t.Errorf("%s: Heap.%s calls RunqueueHandle: a sift level goes through the element again",
						fset.Position(sel.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
	for name, seen := range sifts {
		if !seen {
			t.Errorf("runqueue.Heap has no method %s; update the guard", name)
		}
	}
	for _, path := range driverSources(t, filepath.Join("internal", "machine")) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			m, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			if star, ok := m.Key.(*ast.StarExpr); ok {
				if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Thread" {
					t.Errorf("%s: a map keyed by *sched.Thread: the task of a picked thread is a hashed lookup per dispatch again",
						fset.Position(m.Pos()))
				}
			}
			return true
		})
	}
}

// TestTaskPathStaysOnItsShard guards what makes a flood task cheap on an SMP:
// the concurrent per-task path of internal/rt writes no word that belongs to
// the whole Runtime, so two shards' workers never trade a cache line per task.
// reserve, submit, pop, completeLocked, drainLocked and dispatchLocked may not
// call Add, Store or CompareAndSwap on a field selected from a *Runtime (r, or
// any x.r, by the package's naming), and completeLocked may signal a tenant's
// notFull only inside an if that tests waiters — the cold sync.Cond is not
// touched when nobody waits. The per-shard counters the path does write are
// held apart by internal/rt's TestTaskCounterLayout.
//
// Nor does the path sleep on a shard lock somebody holds for a microsecond:
// submit may take one with Lock only under the ring-full branch, in Manual
// mode, or inside an if on idlers — a worker on its way into workCond.Wait is
// the one holder a doorbell cannot be left with — and takes it with TryLock
// otherwise. That leaves the doorbell to the holder, so outside shard.unlock
// (which reads the doorbell again after the release) and the worker's own loop
// no non-test file of the package may call mu.Unlock on a shard: a new lock
// holder cannot forget it.
func TestTaskPathStaysOnItsShard(t *testing.T) {
	fset := token.NewFileSet()
	path := map[string]bool{"reserve": false, "submit": false, "pop": false,
		"completeLocked": false, "drainLocked": false, "dispatchLocked": false}
	writes := map[string]bool{"Add": true, "Store": true, "CompareAndSwap": true}
	isRuntime := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name == "r"
		case *ast.SelectorExpr:
			return x.Sel.Name == "r"
		}
		return false
	}
	// mentions reports an identifier of that name anywhere in n: a variable, or
	// the field of a selector.
	mentions := func(n ast.Node, name string) (found bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
		return found
	}
	// under marks the calls inside the body (and else) of every if whose
	// condition ok accepts.
	under := func(body ast.Node, ok func(cond ast.Expr) bool) map[*ast.CallExpr]bool {
		marked := map[*ast.CallExpr]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			if st, isIf := n.(*ast.IfStmt); isIf && ok(st.Cond) {
				for _, branch := range []ast.Node{st.Body, st.Else} {
					if branch == nil {
						continue
					}
					ast.Inspect(branch, func(n ast.Node) bool {
						if call, isCall := n.(*ast.CallExpr); isCall {
							marked[call] = true
						}
						return true
					})
				}
			}
			return true
		})
		return marked
	}
	// onMu reports a call of the named method on some x.mu.
	onMu := func(call *ast.CallExpr, method string) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return false
		}
		mu, ok := sel.X.(*ast.SelectorExpr)
		return ok && mu.Sel.Name == "mu"
	}
	signals, idlerLocks, tryLocks, helperUnlocks := 0, 0, 0, 0
	for _, file := range driverSources(t, filepath.Join("internal", "rt")) {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			recv := ""
			if fn.Recv != nil {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					recv = star.X.(*ast.Ident).Name
				}
			}
			// Who may give a shard lock up directly. (FakeClock's mu is its own.)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && onMu(call, "Unlock") && recv != "FakeClock" {
					switch {
					case recv == "shard" && name == "unlock":
						helperUnlocks++
					case recv == "Runtime" && name == "worker":
					default:
						t.Errorf("%s: %s releases a shard lock with mu.Unlock: only shard.unlock reads the doorbell again",
							fset.Position(call.Pos()), name)
					}
				}
				return true
			})
			if fn.Recv == nil {
				continue
			}
			if name == "submit" {
				mayBlock := under(fn.Body, func(cond ast.Expr) bool {
					not, isNot := cond.(*ast.UnaryExpr)
					ringFull := isNot && not.Op == token.NOT && mentions(not.X, "ok")
					return ringFull || mentions(cond, "manual") || mentions(cond, "idlers")
				})
				byIdlers := under(fn.Body, func(cond ast.Expr) bool { return mentions(cond, "idlers") })
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, _ := call.Fun.(*ast.SelectorExpr)
					switch {
					case onMu(call, "TryLock"):
						tryLocks++
					case onMu(call, "Lock") || (sel != nil && sel.Sel.Name == "lockShard"):
						if !mayBlock[call] {
							t.Errorf("%s: submit waits for a shard lock outside the ring-full branch, Manual mode and an if on idlers",
								fset.Position(call.Pos()))
						}
						if byIdlers[call] {
							idlerLocks++
						}
					}
					return true
				})
			}
			if _, on := path[name]; !on {
				continue
			}
			path[name] = true
			// The calls that sit under an if testing waiters.
			guarded := map[*ast.CallExpr]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if st, ok := n.(*ast.IfStmt); ok && mentions(st.Cond, "waiters") {
					ast.Inspect(st.Body, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							guarded[call] = true
						}
						return true
					})
				}
				return true
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if field, ok := sel.X.(*ast.SelectorExpr); ok && writes[sel.Sel.Name] && isRuntime(field.X) {
					t.Errorf("%s: %s writes Runtime.%s per task: every shard's worker takes that cache line",
						fset.Position(call.Pos()), name, field.Sel.Name)
				}
				if name == "completeLocked" && sel.Sel.Name == "Signal" && mentions(sel.X, "notFull") {
					signals++
					if !guarded[call] {
						t.Errorf("%s: completeLocked signals notFull outside an if on waiters",
							fset.Position(call.Pos()))
					}
				}
				return true
			})
		}
	}
	for name, seen := range path {
		if !seen {
			t.Errorf("internal/rt has no method %s; update the guard", name)
		}
	}
	if signals == 0 {
		t.Error("completeLocked no longer signals notFull; update the guard")
	}
	if idlerLocks != 1 || tryLocks == 0 {
		t.Errorf("submit has %d Lock calls under an if on idlers and %d TryLock calls, want 1 and ≥ 1; update the guard", idlerLocks, tryLocks)
	}
	if helperUnlocks == 0 {
		t.Error("internal/rt has no shard.unlock releasing mu; update the guard")
	}
}

// TestExperimentsStaySimulated keeps one way to measure: internal/experiments
// reproduces the paper's figures inside the simulator and starts no worker —
// the runtime and the cluster are measured by cmd/sfsbench — so no file there,
// tests included, imports either, and the examples show the facade, not the
// experiments behind cmd/paperbench.
func TestExperimentsStaySimulated(t *testing.T) {
	fset := token.NewFileSet()
	forbidden := map[string][]string{
		filepath.Join("internal", "experiments"): {"sfsched/internal/rt", "sfsched/internal/cluster"},
		"examples":                               {"sfsched/internal/experiments"},
	}
	for root, banned := range forbidden {
		parsed := 0
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			parsed++
			for _, imp := range f.Imports {
				for _, b := range banned {
					if strings.Trim(imp.Path.Value, `"`) == b {
						t.Errorf("%s imports %s: a second measurement stack beside cmd/sfsbench again", path, b)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if parsed == 0 {
			t.Errorf("no Go sources under %s; update the guard", root)
		}
	}
}
