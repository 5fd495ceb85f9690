// Benchmarks for the cluster tier's two hot paths, gated by BENCH_8.json in
// CI alongside the dispatch and submit benches.
//
// BenchmarkPlacement measures one Register/Unregister cycle against a
// steady background population: k=1 is a single random probe (plain random
// placement), k=2 the power-of-two-choices placement the cluster defaults
// to. The second probe costs one more Load() — a brief sweep of the probed
// machine's shards — so the gate is a within-run floor: k=2 placement must
// stay within ~3x of random, machine-independent.
//
// BenchmarkClusterSubmit measures the submit→dispatch→complete pipeline
// through the cluster tenant handle (an RWMutex read-lock around the
// machine binding, so migration never strands a submission) against the
// same pipeline on a bare runtime tenant. The within-run floor pins the
// wrapper overhead; both routes must stay 0 allocs/op (-benchmem in CI,
// TestSubmitTaskOptionsZeroAlloc asserts the inner route deterministically).

package sfsched_test

import (
	"fmt"
	"testing"

	"sfsched"
)

// BenchmarkPlacement cycles one tenant through Register/Unregister on a
// 16-machine Manual cluster carrying 128 resident tenants, so every probe
// reads a realistically populated load summary.
func BenchmarkPlacement(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d/machines=16", k), func(b *testing.B) {
			clock := sfsched.NewFakeClock()
			c, err := sfsched.NewCluster(sfsched.ClusterConfig{
				Machines: 16, K: k, Workers: 2, Clock: clock,
				Manual: true, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 128; i++ {
				if _, err := c.Register(fmt.Sprintf("resident-%d", i), 1+float64(i%4)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, err := c.Register("probe", 2)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Unregister(t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterSubmit drives the full Manual-mode pipeline — submit,
// dispatch, advance, complete — through a bare runtime tenant (route=direct)
// and through the cluster handle wrapping an identical single-machine
// cluster (route=cluster).
func BenchmarkClusterSubmit(b *testing.B) {
	task := sfsched.RunOnce(func() {})
	b.Run("route=direct", func(b *testing.B) {
		clock := sfsched.NewFakeClock()
		r := sfsched.NewRuntime(sfsched.RuntimeConfig{
			Workers: 1, Quantum: 10 * sfsched.Millisecond,
			Clock: clock, Manual: true, Intake: sfsched.IntakeConfig{QueueCap: 4},
		})
		defer r.Close()
		tn, err := r.Register("bench", 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tn.SubmitTask(task); err != nil {
				b.Fatal(err)
			}
			d := r.Dispatch(0)
			clock.Advance(sfsched.Millisecond)
			d.Complete(true)
		}
	})
	b.Run("route=cluster", func(b *testing.B) {
		clock := sfsched.NewFakeClock()
		c, err := sfsched.NewCluster(sfsched.ClusterConfig{
			Machines: 1, Workers: 1, Quantum: 10 * sfsched.Millisecond,
			Clock: clock, QueueCap: 4, Manual: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		t, err := c.Register("bench", 1)
		if err != nil {
			b.Fatal(err)
		}
		r := c.Node(0).(*sfsched.Runtime)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := t.SubmitTask(task); err != nil {
				b.Fatal(err)
			}
			d := r.Dispatch(0)
			clock.Advance(sfsched.Millisecond)
			d.Complete(true)
		}
	})
}
