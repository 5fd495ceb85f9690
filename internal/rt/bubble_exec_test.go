//go:build !goexperiment.synctest

package rt

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBubbleUnderSynctest runs the bubble tests from a plain go test, so the
// concurrent runtime's decision-level checks run with every go test ./...:
// it re-runs this package's Bubble tests through the toolchain's own go with
// GOEXPERIMENT=synctest, which bubble_test.go's build tag needs. The build
// tag above keeps it out of a binary built with the experiment, where the
// bubble tests run directly. Reading bubble_test.go makes that file an input
// of this test, so Go's test cache re-runs it when the file changes. The
// first run rebuilds the standard library under the experiment (about 20 s);
// later runs reuse the build cache. CI's race job keeps its -race -count=10
// run of the bubble; -short skips this one.
func TestBubbleUnderSynctest(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the bubble tests under GOEXPERIMENT=synctest")
	}
	if _, err := os.ReadFile("bubble_test.go"); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "test", "-count=1", "-run", "Bubble", ".")
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("GOEXPERIMENT=synctest go test -run Bubble: %v\n%s", err, out)
	}
}
