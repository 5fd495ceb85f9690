// Build-and-run smoke tests for every binary in the repository: the example
// programs (fairserver once per live scheduling policy) and cmd/paperbench.
// Each runs end-to-end (tiny iteration counts where the binary accepts them)
// so CI exercises the full wiring — facade, machine, workloads, experiments,
// policy factories, CSV output — not just the library packages.
package sfsched_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sfsched"
)

// runBinary executes `go run ./<pkg> args...` from the repository root and
// returns its combined output.
func runBinary(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./" + pkg}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./%s %v: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	cases := []struct {
		pkg  string
		args []string
		want string // substring the output must contain
	}{
		{"examples/quickstart", nil, "task2"},
		{"examples/hierarchy", nil, "class"},
		{"examples/latency", nil, "ms"},
		{"examples/videoserver", nil, "mpeg"},
		{"examples/webhosting", nil, "gold"},
		{"examples/fairserver", []string{"-duration", "300ms"}, "jain"},
		{"examples/cluster", []string{"-machines", "2", "-workers", "2",
			"-duration", "300ms", "-migrate-every", "100ms"}, "jain"},
	}
	for _, c := range cases {
		t.Run(filepath.Base(c.pkg), func(t *testing.T) {
			t.Parallel()
			out := runBinary(t, c.pkg, c.args...)
			if !strings.Contains(strings.ToLower(out), c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}

// TestFairserverPolicySmoke runs examples/fairserver under every live policy
// PolicyByName constructs: each must serve the weighted load end to end —
// sharded dispatch included — and report its scheduler name in the per-shard
// table plus a final Jain line.
func TestFairserverPolicySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	for _, policy := range sfsched.LivePolicies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			out := runBinary(t, "examples/fairserver",
				"-policy", policy, "-duration", "150ms", "-per-tier", "2")
			low := strings.ToLower(out)
			if !strings.Contains(low, "jain") {
				t.Fatalf("output missing jain line:\n%s", out)
			}
			if !strings.Contains(low, "policy "+policy) {
				t.Fatalf("output does not name policy %q:\n%s", policy, out)
			}
		})
	}
	t.Run("unknown-policy", func(t *testing.T) {
		t.Parallel()
		cmd := exec.Command("go", "run", "./examples/fairserver", "-policy", "fifo")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("unknown policy accepted:\n%s", out)
		}
		if !strings.Contains(string(out), "unknown policy") {
			t.Fatalf("unhelpful error for unknown policy:\n%s", out)
		}
	})
}

func TestPaperbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	// One timeline experiment end-to-end, with CSV output.
	dir := t.TempDir()
	out := runBinary(t, "cmd/paperbench", "-run", "fig1", "-csv", dir)
	if !strings.Contains(out, "Figure 1") {
		t.Fatalf("fig1 output missing header:\n%s", out)
	}
	// The overhead table with a tiny iteration budget.
	out = runBinary(t, "cmd/paperbench", "-run", "table1", "-iters", "500")
	if !strings.Contains(out, "Table 1") {
		t.Fatalf("table1 output missing header:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("-csv wrote no files")
	}
}
