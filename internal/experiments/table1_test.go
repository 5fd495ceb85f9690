//go:build !sfscount

package experiments

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestTable1AndFig7 sanity-checks the overhead harness — positive costs, and
// time sharing's schedule() scan visiting every runnable thread per switch,
// counted rather than timed — and then re-runs itself under the sfscount
// build tag (table1_count_test.go), where SFS's side of Table 1 and Figure 7
// is DESIGN.md §3's cost rows as bounds on counted kernel work. The re-run
// goes through the toolchain's own go, as TestBubbleUnderSynctest's does with
// GOEXPERIMENT; reading table1_count_test.go makes that file an input of this
// test, so Go's test cache re-runs it when the file changes. -short skips the
// re-run.
func TestTable1AndFig7(t *testing.T) {
	res := Table1(3000)
	for _, row := range res.Rows {
		if row.Note != "" {
			continue
		}
		if row.TS <= 0 || row.SFS <= 0 {
			t.Fatalf("non-positive cost in row %q: %+v", row.Test, row)
		}
	}
	f := Fig7(Fig7Params{Procs: []int{2, 50}, Iters: 5000})
	for i, n := range f.Params.Procs {
		if f.TSScan[i] != float64(n) {
			t.Fatalf("timeshare's scan visits %g threads per switch among %d processes (all %v), want all of them",
				f.TSScan[i], n, f.TSScan)
		}
		if f.SFS[i] <= 0 {
			t.Fatalf("non-positive SFS switch cost among %d processes: %v", n, f.SFS[i])
		}
	}
	if testing.Short() {
		t.Skip("re-runs under the sfscount build tag")
	}
	if _, err := os.ReadFile("table1_count_test.go"); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "test", "-tags", "sfscount", "-count=1", "-run", "^TestTable1AndFig7$", ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go test -tags sfscount -run TestTable1AndFig7: %v\n%s", err, out)
	}
}
