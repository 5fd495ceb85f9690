package sfsched_test

// Architecture guard for the engine seam: internal/engine owns ALL dispatch
// charge arithmetic, and the two clock drivers (internal/machine, internal/rt)
// must route every decision through it. The guard parses the drivers' sources
// and fails if either stops importing the engine or reaches around it —
// calling a scheduler's Charge directly, or mutating a Slice's
// accounting fields — which would let the historical duplicated-remainder
// arithmetic creep back in and silently re-fork the decision cores that the
// structural golden tests assume are one.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
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

// forbiddenCalls and forbiddenWrites are the seam violations: direct
// scheduler charge calls and assignments to engine.Slice accounting fields.
var (
	forbiddenCalls  = map[string]bool{"Charge": true}
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
// must still contain the charge calls (exactly two: the installment and the
// settlement), so the forbidden-token list above cannot rot into vacuous
// truth if the method is renamed, and a second installment path fails it.
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
	if calls["Charge"] != 2 {
		t.Fatalf("engine calls Charge %d times, want 2 (installment, settlement); update the guard's token list", calls["Charge"])
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
		for _, owned := range []string{"sfsched/internal/runqueue", "sfsched/internal/readjust"} {
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
// path: internal/readjust's weight queue is a runqueue.Heap (the keyed form,
// on −w), and the package constructs no runqueue.List.
func TestWeightQueueStaysLogarithmic(t *testing.T) {
	fset := token.NewFileSet()
	made := map[string]int{}
	for _, path := range driverSources(t, filepath.Join("internal", "readjust")) {
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
		t.Errorf("internal/readjust uses runqueue.List (%v): the weight queue's insert is O(n) again", made)
	}
	if made["NewKeyedHeap"] == 0 {
		t.Errorf("internal/readjust no longer builds a keyed runqueue.Heap (%v); update the guard", made)
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

// TestOneRefreshSite keeps the class-key refresh where the keys are read:
// internal/core calls refreshKeys exactly once, from pickExact, after the
// early return of the waiting holder of v. A refresh wherever v moves re-keys
// classes no pick reads.
func TestOneRefreshSite(t *testing.T) {
	fset := token.NewFileSet()
	var sites []string
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
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "refreshKeys" {
						sites = append(sites, fn.Name.Name)
					}
				}
				return true
			})
		}
	}
	if len(sites) != 1 || sites[0] != "pickExact" {
		t.Errorf("internal/core calls refreshKeys from %v, want once, from pickExact: a refresh on every v move "+
			"cost flood 9 %% of its CPU and hogs 12.7 refreshes per pick", sites)
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
		t.Errorf("only %d files outside internal/runqueue name runqueue.Heap (core, readjust and vtq did); update the guard", heapUsers)
	}
}

// TestPickAndSiftStayOffTheElement keeps two per-operation indirections from
// coming back. A sift level of runqueue.Heap records the moved element's
// position through the handle pointer cached in the heap position: up, down
// and set contain no call to RunqueueHandle (a dictionary call per level — the
// method is generic). And neither driver hashes a picked thread: the
// simulator checks it against a slice indexed by Thread.ID, the runtime finds
// its tenant through Thread.Owner, and non-test internal/machine and
// internal/rt declare no map[*sched.Thread]… (a hashed lookup per dispatch).
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
	drivers := append(driverSources(t, filepath.Join("internal", "machine")),
		driverSources(t, filepath.Join("internal", "rt"))...)
	for _, path := range drivers {
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
					t.Errorf("%s: a map keyed by *sched.Thread: the task or tenant of a picked thread is a hashed lookup per dispatch again",
						fset.Position(m.Pos()))
				}
			}
			return true
		})
	}
}

// TestDecisionPathStaysOffTheTask keeps the simulator's task record off its
// per-decision path: internal/machine's schedule, dispatch, stop, cpuStop,
// syncRunning, wakePreempt and settle select no field or method of a Task
// (passing or storing the pointer is allowed). What a decision needs of a task
// — that the picked thread is one, and the CPU time left in its burst — sits in
// the machine's dense per-thread-ID table; the record is read at burst
// boundaries only. Loading it per dispatch (the picked thread's Task, then
// its burst remainder) was 16 % of a CPU profile of sfsbench's sim (2 vCPUs).
func TestDecisionPathStaysOffTheTask(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range driverSources(t, filepath.Join("internal", "machine")) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("sfsched/internal/machine", fset, files, info)
	if err != nil {
		t.Fatalf("type-check internal/machine: %v", err)
	}
	task := pkg.Scope().Lookup("Task")
	if task == nil {
		t.Fatal("internal/machine declares no Task; update the guard")
	}
	path := map[string]bool{"schedule": false, "dispatch": false, "stop": false, "cpuStop": false,
		"syncRunning": false, "wakePreempt": false, "settle": false}
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			if _, on := path[fn.Name.Name]; !on {
				continue
			}
			path[fn.Name.Name] = true
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				se, ok := n.(*ast.SelectorExpr)
				if !ok || info.Selections[se] == nil {
					return true
				}
				recv := info.Selections[se].Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if types.Identical(recv, task.Type()) {
					t.Errorf("%s: Machine.%s selects Task.%s: a decision reads the task record again",
						fset.Position(se.Pos()), fn.Name.Name, se.Sel.Name)
				}
				return true
			})
		}
	}
	for name, seen := range path {
		if !seen {
			t.Errorf("internal/machine has no method %s; update the guard", name)
		}
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
// Nor does a submit sleep on a shard lock somebody holds for a microsecond, or
// drain a ring that is not its own: submit calls no TryLock, and takes the lock
// once under each of the backpressure branch (a failed reservation), the
// ring-full branch, Manual mode and an if on idlers — a worker on its way into
// workCond.Wait is the one it must signal under the lock. A call to
// enqueueSlow, the one locked submit path, counts as taking the lock. The
// doorbell it leaves up is answered on the shard's own side, so drainLocked is
// called only from owners' sites: the worker and Manual Dispatch, a
// completion (which must see a successor its own task submitted before it
// departs the tenant), a polling task's Preempted, the enforcement pass, the
// locked submit path, a thief's stealFrom (which must see the victim's ring),
// Deport (which must see the whole backlog) and CheckInvariants.
//
// Nor does the path, the worker loop or the post-unlock effects name regMu:
// the shard sets are the only tenant registry, so no worker serializes on
// Register, Rebalance or ShardStats.
func TestTaskPathStaysOnItsShard(t *testing.T) {
	fset := token.NewFileSet()
	path := map[string]bool{"reserve": false, "submit": false, "pop": false,
		"completeLocked": false, "drainLocked": false, "dispatchLocked": false}
	offRegistry := map[string]bool{"Tenant.reserve": false, "Tenant.submit": false, "Tenant.pop": false,
		"Dispatched.completeLocked": false, "shard.drainLocked": false, "shard.dispatchLocked": false,
		"postActions.run": false, "Runtime.worker": false}
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
	drainers := map[string]bool{"Runtime.worker": false, "Runtime.Dispatch": false,
		"Dispatched.completeLocked": false, "Dispatched.Preempted": false, "Runtime.Enforce": false,
		"Tenant.submit": false, "Tenant.enqueueSlow": false, "Runtime.stealFrom": false,
		"Runtime.Deport": false, "Runtime.CheckInvariants": false}
	signals := 0
	submitLocks := map[string]int{}
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
			site := recv + "." + name
			if _, on := offRegistry[site]; on {
				offRegistry[site] = true
				if mentions(fn.Body, "regMu") {
					t.Errorf("%s: %s names regMu: a worker serializes on the registry again",
						fset.Position(fn.Pos()), site)
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "drainLocked" {
					if _, owner := drainers[site]; !owner {
						t.Errorf("%s: %s drains a shard's ring: only the shard's own side does",
							fset.Position(call.Pos()), site)
					}
					drainers[site] = true
				}
				return true
			})
			if fn.Recv == nil {
				continue
			}
			if name == "submit" {
				// Each Lock is counted under the kind of if it sits in.
				kinds := map[string]func(cond ast.Expr) bool{
					"backpressure": func(cond ast.Expr) bool { return mentions(cond, "cnt") },
					"ring-full": func(cond ast.Expr) bool {
						not, isNot := cond.(*ast.UnaryExpr)
						return isNot && not.Op == token.NOT && mentions(not.X, "ok")
					},
					"manual": func(cond ast.Expr) bool { return mentions(cond, "manual") },
					"idlers": func(cond ast.Expr) bool { return mentions(cond, "idlers") },
				}
				marked := map[string]map[*ast.CallExpr]bool{}
				for kind, ok := range kinds {
					marked[kind] = under(fn.Body, ok)
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, _ := call.Fun.(*ast.SelectorExpr)
					switch {
					case onMu(call, "TryLock"):
						t.Errorf("%s: submit calls TryLock: a doorbell winner drains a ring that is not its own again",
							fset.Position(call.Pos()))
					case onMu(call, "Lock") || (sel != nil && (sel.Sel.Name == "lockShard" || sel.Sel.Name == "enqueueSlow")):
						kind := ""
						for k, m := range marked {
							if m[call] {
								kind = k
							}
						}
						if kind == "" {
							t.Errorf("%s: submit waits for a shard lock outside the backpressure and ring-full branches, Manual mode and an if on idlers",
								fset.Position(call.Pos()))
						}
						submitLocks[kind]++
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
	for site, seen := range offRegistry {
		if !seen {
			t.Errorf("internal/rt has no method %s; update the guard", site)
		}
	}
	if signals == 0 {
		t.Error("completeLocked no longer signals notFull; update the guard")
	}
	for _, kind := range []string{"backpressure", "ring-full", "manual", "idlers"} {
		if submitLocks[kind] != 1 {
			t.Errorf("submit takes the shard lock %d times under its %s if, want 1; update the guard", submitLocks[kind], kind)
		}
	}
	for site, seen := range drainers {
		if !seen {
			t.Errorf("%s no longer drains its shard's ring; update the guard", site)
		}
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

// TestRuntimeLinksNoSimulator keeps the simulator out of the runtime's
// binary: no package internal/rt reaches through its non-test imports may be
// the simulated machine or the experiments built on it. A helper that one
// experiment needs belongs beside it, not in a package the runtime imports.
func TestRuntimeLinksNoSimulator(t *testing.T) {
	const module, root = "sfsched/", "sfsched/internal/rt"
	fset := token.NewFileSet()
	importedBy := map[string]string{root: ""}
	for queue := []string{root}; len(queue) > 0; queue = queue[1:] {
		pkg := queue[0]
		entries, err := os.ReadDir(strings.TrimPrefix(pkg, module))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(strings.TrimPrefix(pkg, module), name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				dep := strings.Trim(imp.Path.Value, `"`)
				if _, seen := importedBy[dep]; !seen && strings.HasPrefix(dep, module) {
					importedBy[dep] = pkg
					queue = append(queue, dep)
				}
			}
		}
	}
	if len(importedBy) < 3 {
		t.Fatalf("internal/rt reaches only %d packages; update the guard", len(importedBy))
	}
	for _, banned := range []string{"sfsched/internal/machine", "sfsched/internal/experiments"} {
		if _, linked := importedBy[banned]; !linked {
			continue
		}
		chain := []string{banned}
		for pkg := importedBy[banned]; pkg != ""; pkg = importedBy[pkg] {
			chain = append([]string{pkg}, chain...)
		}
		t.Errorf("the runtime links the simulator: %s", strings.Join(chain, " → "))
	}
}

// exportsWithoutCallers is the allowlist of TestInternalExportsHaveCallers:
// exported functions and methods under internal/ that no non-test file
// names, each kept for a reason the tests give it.
var exportsWithoutCallers = map[string]string{
	"machine.Machine.SetDecisionRecorder":    "seam: the structural golden tests record the simulator's decision trace",
	"rt.Runtime.SetDecisionRecorder":         "seam: the structural golden tests record a shard's decision trace",
	"vtq.Queue.SetWarp":                      "seam: BVT's warp, set by the BVT and kernel tests",
	"hier.Class.Rate":                        "hier's class API: a class's GMS rate, read by the hier tests",
	"hier.Hier.ClassOf":                      "hier's class API: a thread's class, read by the hier tests",
	"hier.Hier.SetClassWeight":               "hier's class API: a class reweight, driven by the hier tests",
	"partition.Partitioned.Moves":            "seam: the partitioned baseline's migration count, read by its tests",
	"partition.Partitioned.PartitionWeights": "seam: per-partition weight totals, read by the partition tests",
	"lottery.Lottery.Picks":                  "seam: the drawing count, read by the lottery tests",
	"timeshare.TS.Epochs":                    "seam: the counter-recharge epoch count, read by the time-sharing tests",
	"simtime.FromSeconds":                    "reference: fractional seconds to a Duration, for the simtime tests' round trips",
	"simtime.Time.After":                     "reference: the instant order the simtime tests check beside Sub and Add",
	"rt.SliceCtx.Slice":                      "facade API: a PreemptibleTask's timeslice hint, which a plain Task gets as its argument",
	"rt.Dispatched.Slice":                    "facade API: a Manual driver's granted timeslice, which the golden and preempt tests run by",
	"core.SFS.Quantum":                       "facade API: an SFS's maximum quantum, which the facade and core tests read back from WithQuantum",
}

// TestInternalExportsHaveCallers is arch guard 13: every exported function or
// method declared in a non-test file under internal/ is named somewhere else
// in a non-test file of the repository (cmd/sfsbench and the examples count),
// or sits in exportsWithoutCallers with its reason. A function counts as
// named when another site calls or refers to it through its package, a
// method when an interface names it, a selector calls it, or an uncalled
// selector names it and no struct has a field of that name (th.Weight reads a
// field; it does not name rt.Tenant.Weight). An export only its own
// unit test uses is a knob or helper nobody needs: delete it, or allowlist it
// with the reason a test keeps it.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct {
		key  string // pkg.Name or pkg.Recv.Name
		pkg  string // import path
		name string
		fn   bool // a function, not a method
		at   token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	pkgRefs := map[string]bool{}      // import path + "." + name, referenced
	methodRefs := map[string]bool{}   // names an interface lists or a selector calls
	selectedOnly := map[string]bool{} // names selected but never called: a field read or a method value
	fields := map[string]bool{}       // names of struct fields, embedded ones included
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		self := "sfsched/" + dir
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		own := map[*ast.Ident]bool{}           // identifiers that are not bare references: declared names, selected names
		called := map[*ast.SelectorExpr]bool{} // selectors in a call's function position
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fd.Name.IsExported() {
				continue
			}
			pkg := dir[strings.LastIndex(dir, "/")+1:]
			dc := decl{key: pkg + "." + fd.Name.Name, pkg: self, name: fd.Name.Name, fn: fd.Recv == nil,
				at: fset.Position(fd.Pos())}
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					dc.key = pkg + "." + id.Name + "." + fd.Name.Name
				}
			}
			decls = append(decls, dc)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel] = true
				}
			case *ast.StructType:
				for _, fl := range n.Fields.List {
					for _, name := range fl.Names {
						fields[name.Name] = true
					}
					if len(fl.Names) == 0 { // embedded: the field is named by its type
						typ := fl.Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if sel, ok := typ.(*ast.SelectorExpr); ok {
							typ = sel.Sel
						}
						if id, ok := typ.(*ast.Ident); ok {
							fields[id.Name] = true
						}
					}
				}
			case *ast.SelectorExpr:
				own[n.Sel] = true // a selected name is not a bare reference
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						pkgRefs[p+"."+n.Sel.Name] = true
						return true
					}
				}
				if called[n] {
					methodRefs[n.Sel.Name] = true
				} else {
					selectedOnly[n.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						methodRefs[name.Name] = true
					}
				}
			case *ast.Ident:
				if !own[n] {
					pkgRefs[self+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d exported functions under internal/; update the guard", len(decls))
	}
	unlisted := maps.Clone(exportsWithoutCallers)
	for _, d := range decls {
		named := methodRefs[d.name] || (selectedOnly[d.name] && !fields[d.name])
		if d.fn {
			named = pkgRefs[d.pkg+"."+d.name]
		}
		_, allowed := unlisted[d.key]
		switch {
		case !named && !allowed:
			t.Errorf("%s: %s is exported but no non-test file names it; delete it, or allowlist it with the reason a test keeps it",
				d.at, d.key)
		case named && allowed:
			t.Errorf("%s: %s has a caller now; take it off the allowlist", d.at, d.key)
		}
		delete(unlisted, d.key)
	}
	for key := range unlisted {
		t.Errorf("allowlisted %s is not an exported function under internal/; take it off the list", key)
	}
}
