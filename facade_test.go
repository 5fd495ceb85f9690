package sfsched_test

// Tests of the public facade: every constructor and re-export is exercised
// the way examples/ use them, plus a differential property test that pits
// every work-conserving proportional-share scheduler against the GMS fluid
// reference on randomized feasible workloads.

import (
	"fmt"
	"math"
	"testing"

	"sfsched"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	m := sfsched.NewMachine(sfsched.MachineConfig{
		CPUs:      2,
		Scheduler: sfsched.NewSFS(2),
		Seed:      1,
	})
	weights := []float64{1, 10, 1}
	tasks := make([]*sfsched.Task, len(weights))
	for i, w := range weights {
		tasks[i] = m.Spawn(sfsched.SpawnConfig{
			Name:     fmt.Sprintf("task%d", i+1),
			Weight:   w,
			Behavior: sfsched.Inf(),
		})
	}
	m.Run(sfsched.Time(30 * sfsched.Second))
	// Readjustment turns 1:10:1 into 1:2:1 on a dual-processor machine.
	var total sfsched.Duration
	for _, k := range tasks {
		total += k.Thread().Service
	}
	shares := []float64{0.25, 0.5, 0.25}
	for i, k := range tasks {
		got := float64(k.Thread().Service) / float64(total)
		if math.Abs(got-shares[i]) > 0.02 {
			t.Fatalf("task%d share %.3f, want ~%.2f", i+1, got, shares[i])
		}
	}
}

func TestFacadeConstructors(t *testing.T) {
	names := map[string]string{
		"sfs": "SFS", "sfq": "SFQ", "sfq+readjust": "SFQ+readjust", "timeshare": "timeshare",
		"stride": "stride", "bvt": "BVT", "lottery": "lottery", "hier": "hier-SFS",
	}
	for _, name := range sfsched.LivePolicies() {
		policy, err := sfsched.PolicyByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := policy(2)
		if s.Name() != names[name] {
			t.Errorf("PolicyByName(%q) built %q, want %q", name, s.Name(), names[name])
		}
		if s.NumCPU() != 2 {
			t.Errorf("%s: NumCPU %d", name, s.NumCPU())
		}
	}
	opts := sfsched.NewSFS(4, sfsched.WithQuantum(50*sfsched.Millisecond))
	if opts.Quantum() != 50*sfsched.Millisecond {
		t.Fatalf("option plumbing broken: %v", opts.Quantum())
	}
	if sfsched.NewSFS(2, sfsched.WithoutReadjustment()) == nil {
		t.Fatal("option constructors")
	}
	if sfsched.NewGMS(2) == nil {
		t.Fatal("GMS constructor")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	r := xrand.New(1)
	behs := []sfsched.Behavior{
		sfsched.Inf(),
		sfsched.Finite(sfsched.Second),
		sfsched.Periodic(sfsched.Millisecond, sfsched.Millisecond),
		sfsched.Interactive(sfsched.Millisecond, 10*sfsched.Millisecond),
		sfsched.Compile(sfsched.Second, 30*sfsched.Millisecond, 3*sfsched.Millisecond),
		sfsched.CompileForever(30*sfsched.Millisecond, 3*sfsched.Millisecond),
	}
	for i, b := range behs {
		step := b.Next(0, r)
		if step.Burst <= 0 {
			t.Errorf("behavior %d produced non-positive burst", i)
		}
	}
}

// TestDifferentialVsGMS runs randomized feasible workloads (weights bounded
// so no thread exceeds 1/p of the total) under each proportional-share
// scheduler and asserts the allocation stays within a small multiple of the
// quantum of the GMS fluid ideal. This is the library's strongest
// correctness property: any fairness regression in any scheduler shows up
// here.
func TestDifferentialVsGMS(t *testing.T) {
	quantum := 20 * sfsched.Millisecond
	schedulers := map[string]func() sfsched.Scheduler{
		"sfs": func() sfsched.Scheduler {
			return sfsched.NewSFS(2, sfsched.WithQuantum(quantum))
		},
	}
	for name, mk := range schedulers {
		for trial := 0; trial < 8; trial++ {
			r := xrand.New(uint64(trial) + 100)
			m := sfsched.NewMachine(sfsched.MachineConfig{
				CPUs:      2,
				Scheduler: mk(),
				Seed:      uint64(trial),
			})
			fluid := sfsched.NewGMS(2)
			m.SetHooks(hooksFor(fluid))
			n := 4 + r.Intn(6)
			var tasks []*sfsched.Task
			for i := 0; i < n; i++ {
				// Weights in [1,3] over >=4 threads: always feasible.
				tasks = append(tasks, m.Spawn(sfsched.SpawnConfig{
					Name:     fmt.Sprintf("t%d", i),
					Weight:   1 + 2*r.Float64(),
					Behavior: sfsched.Inf(),
				}))
			}
			horizon := sfsched.Time(20 * sfsched.Second)
			m.Run(horizon)
			fluid.Advance(horizon)
			for _, k := range tasks {
				lag := fluid.Lag(k.Thread())
				if math.Abs(lag) > 6*quantum.Seconds() {
					t.Fatalf("%s trial %d: %s lags GMS by %.3fs",
						name, trial, k.Thread().Name, lag)
				}
			}
		}
	}
}

// TestFacadeRuntime drives the wall-clock runtime through the public facade
// with a fake clock: two tenants at 3:1 on one worker, fixed 1 ms slices,
// must split charged time 3:1.
func TestFacadeRuntime(t *testing.T) {
	clock := sfsched.NewFakeClock()
	r := sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers: 1,
		Quantum: 10 * sfsched.Millisecond,
		Clock:   clock,
		Manual:  true,
	})
	defer r.Close()
	weights := []float64{3, 1}
	tenants := make([]*sfsched.Tenant, len(weights))
	for i, w := range weights {
		tn, err := r.Register(fmt.Sprintf("t%d", i), w)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
		for j := 0; j < 2; j++ {
			if err := tn.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		d := r.Dispatch(0)
		if d == nil {
			t.Fatal("no dispatchable tenant")
		}
		clock.Advance(sfsched.Millisecond)
		d.Complete(true)
		if err := d.Tenant().SubmitTask(sfsched.RunOnce(func() {})); err != nil {
			t.Fatal(err)
		}
	}
	stats := r.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d tenants", len(stats))
	}
	ratio := float64(stats[0].Service) / float64(stats[1].Service)
	if math.Abs(ratio-3) > 0.05 {
		t.Fatalf("service ratio %.3f, want ~3", ratio)
	}
}

// TestFacadePolicyByName pins the policy-name surface: every advertised live
// policy constructs and actually drives a sharded Manual-mode runtime, and
// unknown names fail with a helpful error.
func TestFacadePolicyByName(t *testing.T) {
	for _, name := range sfsched.LivePolicies() {
		name := name
		t.Run(name, func(t *testing.T) {
			policy, err := sfsched.PolicyByName(name, 10*sfsched.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			clock := sfsched.NewFakeClock()
			r := sfsched.NewRuntime(sfsched.RuntimeConfig{
				Workers: 2, Policy: policy, Clock: clock, Manual: true,
				Sharding: sfsched.ShardingConfig{Shards: 2},
			})
			defer r.Close()
			for i := 0; i < 4; i++ {
				tn, err := r.Register(fmt.Sprintf("t%d", i), float64(i+1))
				if err != nil {
					t.Fatal(err)
				}
				if err := tn.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
					t.Fatal(err)
				}
			}
			served := 0
			for i := 0; i < 64; i++ {
				d := r.Dispatch(i % 2)
				if d == nil {
					continue
				}
				clock.Advance(sfsched.Millisecond)
				d.Complete(true)
				served++
			}
			if served != 4 {
				t.Fatalf("policy %s served %d tasks, want 4", name, served)
			}
		})
	}
	if _, err := sfsched.PolicyByName("fifo", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestFacadePreemption drives the wakeup-preemption surface through the
// public facade under every Preempter (tag) policy — Preemptible submits,
// RuntimeConfig.Preempt, the Dispatched/SliceCtx flag, and the per-tenant
// preemption and wake-latency stats — and checks the capability-less
// policies never flag.
func TestFacadePreemption(t *testing.T) {
	for _, tc := range []struct {
		name     string
		preempts bool
	}{
		{"sfs", true}, {"sfq", true}, {"stride", true}, {"bvt", true}, {"hier", true},
		{"timeshare", false}, {"lottery", false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			policy, err := sfsched.PolicyByName(tc.name, 10*sfsched.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			clock := sfsched.NewFakeClock()
			r := sfsched.NewRuntime(sfsched.RuntimeConfig{
				Workers: 1, Policy: policy, Clock: clock, Manual: true, Preempt: true,
			})
			defer r.Close()
			hog, err := r.Register("hog", 1)
			if err != nil {
				t.Fatal(err)
			}
			interact, err := r.Register("interact", 1)
			if err != nil {
				t.Fatal(err)
			}
			var task sfsched.PreemptibleTask = func(ctx sfsched.SliceCtx) bool { return false }
			if err := hog.SubmitTask(nil, sfsched.Preemptible(task)); err != nil {
				t.Fatal(err)
			}
			d := r.Dispatch(0)
			if d == nil || d.Tenant() != hog {
				t.Fatal("hog not dispatched")
			}
			clock.Advance(2 * sfsched.Millisecond)
			if err := interact.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
				t.Fatal(err)
			}
			if got := d.Preempted(); got != tc.preempts {
				t.Fatalf("Preempted() = %v under %s, want %v", got, tc.name, tc.preempts)
			}
			clock.Advance(sfsched.Millisecond)
			d.Complete(false)
			stats := r.Stats()
			for _, s := range stats {
				switch s.Name {
				case "hog":
					want := int64(0)
					if tc.preempts {
						want = 1
					}
					if s.Preemptions != want {
						t.Errorf("hog preemptions %d, want %d", s.Preemptions, want)
					}
					if s.Dispatch.Count == 0 {
						t.Error("hog dispatch latency never recorded")
					}
				case "interact":
					if s.Preemptions != 0 {
						t.Errorf("interact flagged %d times", s.Preemptions)
					}
				}
			}
		})
	}
}

// hooksFor adapts a GMS fluid to machine hooks (what experiments.AttachGMS
// does internally; spelled out here against the public API).
func hooksFor(f *sfsched.GMS) sfsched.Hooks {
	return sfsched.Hooks{
		Runnable:       f.Add,
		Unrunnable:     f.Remove,
		WeightChanging: func(t *sched.Thread, now simtime.Time) { f.Advance(now) },
	}
}
