// Contention benchmarks for the runtime's dispatch path: many submitter
// goroutines flood a 16-worker pool with no-op tasks, so ns/op measures the
// submit→dispatch→charge→complete pipeline under lock contention rather
// than task execution. BenchmarkDispatchSharded/shards=1 is the central-lock
// runtime (every scheduling event serialized through one mutex, the paper's
// kernel model); shards=4 and shards=16 partition dispatch into per-CPU
// runqueues. CI's benchmark-regression gate runs these alongside the
// Overhead* scheduler microbenchmarks and compares against the committed
// BENCH_*.json baselines with cmd/benchcmp.

package sfsched_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"sfsched"
)

// benchmarkDispatch floods the runtime from 16 submitter goroutines feeding
// 16384 tenants under tight backpressure (QueueCap 2, pre-filled), so the
// whole tenant population stays runnable and every task pays the full
// submit→wakeup→dispatch→charge→block pipeline on production-scale
// runqueues: one 16384-thread queue behind the central lock versus
// 16384/shards threads behind each shard lock. ns/op is per completed task.
// GOMAXPROCS is raised to the worker count for the duration so the workers
// and submitters contend like they would on a 16-CPU host (on smaller hosts
// the OS timeslices the threads — the regime where a held central lock
// stalls every peer).
func benchmarkDispatch(b *testing.B, shards, nTenants int, policy sfsched.RuntimePolicy, preempt, enforce, steal bool) {
	const (
		workers    = 16
		submitters = 16
	)
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	r := sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers: workers,
		Policy:  policy, // nil = the default exact-mode SFS
		Quantum: sfsched.Millisecond,
		Preempt: preempt,
		// RebalanceEvery -1: static uniform tenants; isolate dispatch cost.
		Sharding:    sfsched.ShardingConfig{Shards: shards, RebalanceEvery: -1, Steal: steal},
		Enforcement: sfsched.EnforcementConfig{Enabled: enforce},
		Intake:      sfsched.IntakeConfig{QueueCap: 2},
	})
	defer r.Close()
	tenants := make([]*sfsched.Tenant, nTenants)
	for i := range tenants {
		tn, err := r.Register(fmt.Sprintf("bench-%d", i), 1)
		if err != nil {
			b.Fatal(err)
		}
		tenants[i] = tn
	}
	task := sfsched.RunOnce(func() {})
	for _, tn := range tenants {
		for tn.SubmitTask(task, sfsched.NoWait()) == nil {
		}
	}
	var next atomic.Int64
	b.SetParallelism(1) // one submitter per P: 16 submitters vs 16 workers
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each submitter strides over its own 1/16th of the tenants,
		// keeping backlogs full machine-wide.
		base := int(next.Add(1))
		for i := 0; pb.Next(); i++ {
			tn := tenants[(base+i*submitters)%nTenants]
			if err := tn.SubmitTask(task); err != nil &&
				!errors.Is(err, sfsched.ErrRuntimeClosed) {
				b.Error(err)
				return
			}
		}
	})
	r.Drain()
	b.StopTimer()
}

// BenchmarkDispatchSharded measures contended submit/dispatch throughput at
// 1 (central lock), 4 and 16 dispatch shards on a 16-worker pool.
func BenchmarkDispatchSharded(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d/workers=16", shards), func(b *testing.B) {
			benchmarkDispatch(b, shards, 16384, nil, false, false, false)
		})
	}
}

// BenchmarkDispatchPreempt measures the same contended pipeline with
// cooperative wakeup preemption armed versus disarmed: every task completion
// empties its tenant's tiny backlog, so the following submit is a wakeup
// that walks the preemption path (rank the shard's running slices, compare
// the woken tenant, possibly raise a flag) under the shard lock. The pair
// quantifies the flag's hot-path cost — the latency accounting (two
// histogram increments per dispatch) is in both sides — and -benchmem pins
// that 0 allocs/op still holds with the preemption flag in the hot path
// (TestDispatchHotPathZeroAlloc asserts the same deterministically).
func BenchmarkDispatchPreempt(b *testing.B) {
	for _, preempt := range []bool{false, true} {
		b.Run(fmt.Sprintf("preempt=%v/shards=4/workers=16", preempt), func(b *testing.B) {
			benchmarkDispatch(b, 4, 4096, nil, preempt, false, false)
		})
	}
}

// BenchmarkDispatchEnforce measures the contended pipeline with involuntary
// slice enforcement armed versus disarmed: every dispatch additionally arms
// the shard's timer wheel and every completion disarms it, while the
// background enforcer interim-charges whatever slices it catches in flight
// (the no-op tasks complete far inside a tick, so handoffs are never
// triggered — the pair isolates the steady-state bookkeeping cost, not the
// hog-recovery path the enforcement tests pin). The BENCH_7.json benchcmp
// gate bounds the armed/disarmed within-run ratio.
func BenchmarkDispatchEnforce(b *testing.B) {
	for _, enforce := range []bool{false, true} {
		b.Run(fmt.Sprintf("enforce=%v/shards=4/workers=16", enforce), func(b *testing.B) {
			benchmarkDispatch(b, 4, 4096, nil, true, enforce, false)
		})
	}
}

// benchmarkSubmitWake measures the submit→wakeup path through the lock-free
// MPSC intake ring with batched drains. Unlike benchmarkDispatch's
// deep-backlog flood, the tenant population is small and backlogs start
// empty with ample capacity, so the workers drain each tenant to empty
// almost immediately and nearly every submit finds its tenant
// blocked: the op under measurement is the full wakeup admission — the
// backpressure gate, the enqueue, the S_i = max(F_i, v) scheduler re-entry
// and the worker wakeup — which is exactly the work the intake ring takes
// off the lock and batches.
func benchmarkSubmitWake(b *testing.B, shards, nTenants int) {
	const workers = 16
	const submitters = 128
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	r := sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers:  workers,
		Quantum:  sfsched.Millisecond,
		Sharding: sfsched.ShardingConfig{Shards: shards, RebalanceEvery: -1},
	})
	defer r.Close()
	tenants := make([]*sfsched.Tenant, nTenants)
	for i := range tenants {
		tn, err := r.Register(fmt.Sprintf("wake-%d", i), 1)
		if err != nil {
			b.Fatal(err)
		}
		tenants[i] = tn
	}
	task := sfsched.RunOnce(func() {})
	var next atomic.Int64
	b.SetParallelism(8) // 8 submitters per P: 128 concurrent submitters vs 16 workers
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := int(next.Add(1))
		for i := 0; pb.Next(); i++ {
			tn := tenants[(base+i*submitters)%nTenants]
			if err := tn.SubmitTask(task); err != nil &&
				!errors.Is(err, sfsched.ErrRuntimeClosed) {
				b.Error(err)
				return
			}
		}
	})
	r.Drain()
	b.StopTimer()
}

// BenchmarkSubmitWake measures contended submit/wakeup throughput at 1 and 16
// shards on a 16-worker pool with 128 concurrent submitters; BENCH_6.json
// gates the absolute times and -benchmem pins 0 allocs/op. (The names keep
// the intake=true label of the baseline entries: until PR 13 a locked submit
// route ran beside the ring as intake=false.)
func BenchmarkSubmitWake(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("intake=true/shards=%d/workers=16", shards), func(b *testing.B) {
			benchmarkSubmitWake(b, shards, 64)
		})
	}
}

// BenchmarkDispatchPolicy sweeps the same contended pipeline across the live
// scheduling policies at 4 shards: ns/op is the per-task cost of each
// policy's decision path behind the policy-generic seam (capability
// interfaces, no concrete-type dispatch). The tenant population is smaller
// than BenchmarkDispatchSharded's because the baseline policies pick by
// linear scan — SFQ and stride walk their sorted runqueues past running
// threads, timeshare replays the 2.2 goodness() loop, lottery draws across
// the whole ticket population — and the sweep's point is exactly that
// contrast against SFS's sublinear pick at equal tenant count.
func BenchmarkDispatchPolicy(b *testing.B) {
	for _, name := range []string{"sfs", "sfq", "timeshare", "stride", "bvt", "lottery"} {
		policy, err := sfsched.PolicyByName(name, sfsched.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("policy=%s/shards=4/workers=16", name), func(b *testing.B) {
			benchmarkDispatch(b, 4, 4096, policy, false, false, false)
		})
	}
}
