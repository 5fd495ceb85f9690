// Work-stealing benchmarks. BenchmarkStealImbalance is the §1.2 worst case
// as a within-run throughput measurement: every backlogged tenant piled on
// one shard of a 16-shard, one-worker-per-shard pool, driven in Manual
// FakeClock lockstep so the numbers are machine-independent. ns/op is real
// nanoseconds of driver+runtime work per completed simulated task: with
// stealing disarmed only shard 0's worker ever dispatches, so each task pays
// a whole tick of failed sibling dispatches; with stealing armed the idle
// fifteen pull the backlog over on the first tick and every worker completes
// a task per tick thereafter. The rebalancer is off in both cells — within a
// window shorter than one rebalancer period (100ms default, vs the
// microsecond ticks here) the disarmed cell is exactly the rebalancer-only
// runtime, so the benchcmp floor on steal-vs-nosteal is the acceptance
// gate's "stealing vs rebalancer-only" ratio. BenchmarkDispatchSteal is the
// other side of the bargain: the balanced 16-shard contended flood with
// stealing armed versus disarmed, pinning the steady-state cost of the
// nready bookkeeping and the idle-path probes when there is nothing worth
// stealing.

package sfsched_test

import (
	"fmt"
	"testing"

	"sfsched"
)

// benchmarkStealImbalance drives the pile-up in lockstep. Least-weight
// placement breaks ties to the lowest shard id, so registering one active
// while all shards are level pins it on shard 0; the Shards-1 ballast
// registrations then re-level the siblings for the next round, and
// unregistering all ballast at the end leaves every active piled on shard 0.
func benchmarkStealImbalance(b *testing.B, steal bool) {
	const (
		shards = 16
		slice  = 2 * sfsched.Millisecond
	)
	clock := sfsched.NewFakeClock()
	r := sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers:  shards, // one worker slot per shard
		Quantum:  2 * slice,
		Clock:    clock,
		Manual:   true,
		Sharding: sfsched.ShardingConfig{Shards: shards, RebalanceEvery: -1, Steal: steal},
		Intake:   sfsched.IntakeConfig{QueueCap: 4},
	})
	defer r.Close()
	actives := make([]*sfsched.Tenant, 0, shards)
	ballast := make([]*sfsched.Tenant, 0, shards*(shards-1))
	for round := 0; round < shards; round++ {
		tn, err := r.Register(fmt.Sprintf("active-%d", round), 1)
		if err != nil {
			b.Fatal(err)
		}
		actives = append(actives, tn)
		for i := 1; i < shards; i++ {
			bt, err := r.Register("ballast", 1)
			if err != nil {
				b.Fatal(err)
			}
			ballast = append(ballast, bt)
		}
	}
	for _, tn := range ballast {
		if err := r.Unregister(tn); err != nil {
			b.Fatal(err)
		}
	}
	task := sfsched.RunOnce(func() {})
	refill := func() {
		for _, tn := range actives {
			for tn.Queued() < 2 {
				if err := tn.SubmitTask(task, sfsched.NoWait()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	refill()
	ds := make([]*sfsched.Dispatched, 0, shards)
	b.ResetTimer()
	completed, ticks := 0, 0
	for completed < b.N {
		ds = ds[:0]
		for w := 0; w < shards; w++ {
			d := r.Dispatch(w)
			if d == nil && steal && r.TrySteal(w) {
				d = r.Dispatch(w)
			}
			if d != nil {
				ds = append(ds, d)
			}
		}
		clock.Advance(slice)
		for _, d := range ds {
			d.Complete(true)
		}
		completed += len(ds)
		ticks++
		refill()
	}
	b.StopTimer()
	b.ReportMetric(float64(completed)/float64(ticks), "tasks/tick")
}

// BenchmarkStealImbalance: within one run, mode=steal versus mode=nosteal is
// the acceptance ratio — per-task cost with idle workers pulling the piled-up
// backlog over, versus per-task cost with fifteen of sixteen workers idling
// next to it (the rebalancer-only runtime inside one rebalancer period).
func BenchmarkStealImbalance(b *testing.B) {
	for _, steal := range []bool{false, true} {
		mode := "nosteal"
		if steal {
			mode = "steal"
		}
		b.Run(fmt.Sprintf("mode=%s/shards=16", mode), func(b *testing.B) {
			benchmarkStealImbalance(b, steal)
		})
	}
}

// BenchmarkDispatchSteal measures the balanced contended pipeline (the
// BenchmarkDispatchSharded flood) with stealing armed versus disarmed: the
// backlogs keep every shard busy, so steals essentially never fire and the
// pair isolates what arming costs the hot path — the atomic nready updates
// at every runnable-set transition, the dispatch-side offer check, and the
// idle-path spin-and-probe on the rare empty moment. -benchmem pins that
// 0 allocs/op still holds with stealing armed.
func BenchmarkDispatchSteal(b *testing.B) {
	for _, steal := range []bool{false, true} {
		b.Run(fmt.Sprintf("steal=%v/shards=16/workers=16", steal), func(b *testing.B) {
			benchmarkDispatch(b, 16, 16384, nil, false, false, steal)
		})
	}
}
