package rt_test

// Direct coverage for the metrics-export surface under concurrent tenant
// churn: Stats, JainIndex and ShardStats race against Register, Unregister,
// SetWeight and live traffic. Previously this surface was only exercised
// indirectly by race_test.go; these tests pin its guarantees — no torn
// reads, shares that sum to ~1, lags that sum to ~0, sane per-shard views —
// under the race detector in CI.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

func TestConcurrentStatsUnderChurn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		shards := shards
		name := "central"
		if shards > 1 {
			name = "sharded"
		}
		t.Run(name, func(t *testing.T) {
			r := rt.New(rt.Config{
				Workers:        4,
				Shards:         shards,
				Quantum:        2 * simtime.Millisecond,
				QueueCap:       4,
				RebalanceEvery: 5 * time.Millisecond,
			})
			defer r.Close()

			var (
				mu   sync.Mutex
				live []*rt.Tenant
			)
			for i := 0; i < 6; i++ {
				tn, err := r.Register("seed", 1+float64(i%3))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, tn)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			var reads atomic.Int64

			// Churner: replace tenants while readers run.
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					i++
					tn, err := r.Register("churn", 1+float64(i%4))
					if err != nil {
						if errors.Is(err, rt.ErrRuntimeClosed) {
							return
						}
						t.Errorf("register: %v", err)
						return
					}
					_ = tn.SubmitTask(rt.Once(func() { spin(20 * time.Microsecond) }), rt.NoWait())
					mu.Lock()
					live = append(live, tn)
					victim := live[0]
					live = live[1:]
					mu.Unlock()
					if err := r.Unregister(victim); err != nil && !errors.Is(err, rt.ErrTenantClosed) {
						t.Errorf("unregister: %v", err)
						return
					}
					time.Sleep(500 * time.Microsecond)
				}
			}()
			// Submitter: keep live tenants busy so services advance.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					tns := append([]*rt.Tenant(nil), live...)
					mu.Unlock()
					for _, tn := range tns {
						_ = tn.SubmitTask(rt.Once(func() { spin(20 * time.Microsecond) }), rt.NoWait())
					}
					time.Sleep(time.Millisecond)
				}
			}()
			// Readers: validate every exported metric while the set churns.
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						reads.Add(1)
						var shareSum float64
						var lagSum simtime.Duration
						for _, s := range r.Stats() {
							if s.Service < 0 || s.Queued < 0 || s.Share < 0 || s.Share > 1.0001 {
								t.Errorf("bogus tenant stat %+v", s)
								return
							}
							if s.Shard < 0 || s.Shard >= shards {
								t.Errorf("tenant stat names shard %d of %d", s.Shard, shards)
								return
							}
							shareSum += s.Share
							lagSum += s.Lag
						}
						if shareSum > 1.0001 {
							t.Errorf("tenant shares sum to %g", shareSum)
							return
						}
						// With the whole-runtime freeze, the service vector is
						// a consistent cut: lags sum to zero up to per-tenant
						// microsecond rounding, a far tighter bound than an
						// unlocked walk could promise.
						if lagSum > 50*simtime.Microsecond || lagSum < -50*simtime.Microsecond {
							t.Errorf("tenant lags sum to %v, want ~0", lagSum)
							return
						}
						if j := r.JainIndex(); j < 0 || j > 1.0001 {
							t.Errorf("Jain index %g out of range", j)
							return
						}
						ss := r.ShardStats()
						if len(ss) != shards {
							t.Errorf("%d shard stats for %d shards", len(ss), shards)
							return
						}
						for _, s := range ss {
							if s.Weight < -1e-9 || s.Tenants < 0 || s.Runnable < 0 ||
								s.Jain < 0 || s.Jain > 1.0001 || s.Share < 0 || s.Share > 1.0001 {
								t.Errorf("bogus shard stat %+v", s)
								return
							}
						}
						if err := r.CheckInvariants(); err != nil {
							t.Errorf("invariants: %v", err)
							return
						}
					}
				}()
			}

			time.Sleep(400 * time.Millisecond)
			close(stop)
			wg.Wait()
			r.Drain()
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if reads.Load() == 0 {
				t.Fatal("no stats reads completed")
			}
		})
	}
}

// TestStatsConsistentCutUnderLoad hammers the metrics surface while real
// workers charge continuously: every Stats snapshot must be a consistent cut
// — lags summing to ~0 (microsecond rounding only), shares summing to ~1,
// Jain within [0,1] — and JainIndex must agree with a Jain computed from the
// same call's Stats vector to within the drift of two adjacent freezes.
func TestStatsConsistentCutUnderLoad(t *testing.T) {
	r := rt.New(rt.Config{Workers: 4, Shards: 2, Quantum: simtime.Millisecond, QueueCap: 4})
	defer r.Close()
	weights := []float64{4, 3, 2, 1, 4, 3, 2, 1}
	for i, w := range weights {
		tn, err := r.Register("t", w)
		if err != nil {
			t.Fatal(err)
		}
		// Perpetual compute: keeps every worker charging while Stats runs.
		if err := tn.SubmitTask(func(simtime.Duration) bool {
			spin(50 * time.Microsecond)
			return false
		}); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	snapshots := 0
	for time.Now().Before(deadline) {
		stats := r.Stats()
		if len(stats) != len(weights) {
			t.Fatalf("stats lists %d tenants, want %d", len(stats), len(weights))
		}
		var lagSum, shareSum = simtime.Duration(0), 0.0
		for _, s := range stats {
			lagSum += s.Lag
			shareSum += s.Share
		}
		if lagSum > 50*simtime.Microsecond || lagSum < -50*simtime.Microsecond {
			t.Fatalf("lags sum to %v over a frozen cut, want ~0", lagSum)
		}
		if shareSum > 1.0001 || (stats[0].Service > 0 && shareSum < 0.9999) {
			t.Fatalf("shares sum to %g over a frozen cut", shareSum)
		}
		if j := r.JainIndex(); j < 0 || j > 1.0000001 {
			t.Fatalf("Jain index %g out of [0,1]", j)
		}
		snapshots++
	}
	if snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
	// The perpetual compute tasks never finish; Close abandons them.
}

// TestConcurrentRegisterNoStampede: many concurrent Registers (interleaved
// with weight changes that perturb shard loads mid-scan) must still spread
// weight evenly instead of stampeding onto one momentarily-lightest shard.
// Registers serialize on regMu, so one argmin scan per placement is enough;
// what a SetWeight moves between a scan and its placement is the rebalancer's
// to correct, and stays within the skew allowed below.
func TestConcurrentRegisterNoStampede(t *testing.T) {
	const (
		shards        = 4
		perGoroutine  = 16
		registrars    = 8
		tenantsPlaced = registrars * perGoroutine
	)
	r := rt.New(rt.Config{Workers: shards, Shards: shards, QueueCap: 2,
		Manual: true, RebalanceEvery: -1})
	defer r.Close()
	var wg sync.WaitGroup
	tenants := make(chan *rt.Tenant, tenantsPlaced)
	for g := 0; g < registrars; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				tn, err := r.Register("t", 1)
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				tenants <- tn
				// Wiggle the load picture concurrently with other scans.
				if err := r.SetWeight(tn, 1.0+float64(i%2)/100); err != nil {
					t.Errorf("setweight: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(tenants)
	perShard := make([]float64, shards)
	count := 0
	for tn := range tenants {
		count++
		perShard[tn.Shard()] += tn.Thread().Weight
	}
	if count != tenantsPlaced {
		t.Fatalf("placed %d tenants, want %d", count, tenantsPlaced)
	}
	min, max := perShard[0], perShard[0]
	for _, w := range perShard[1:] {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	// Balanced placement puts ~tenantsPlaced/shards ≈ 32 weight units per
	// shard; allow a few units of skew from in-flight weight wiggles, far
	// below the whole-cohort pile-up a stampede would produce.
	if max-min > 4 {
		t.Fatalf("per-shard weight skew %g (min %g, max %g): registration stampede", max-min, min, max)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsCallsAllocate pins what the metrics surface allocates per call on
// a 2-shard, 64-tenant Manual runtime with recorded latencies: Stats and
// ShardStats only their result, JainIndex nothing, and a Rebalance pass that
// moves nothing only what the pure planner allocates (its target, cur and
// used vectors: 5 on 2 shards). Everything else is reused scratch.
func TestStatsCallsAllocate(t *testing.T) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 2, Shards: 2, Quantum: 5 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true})
	defer r.Close()
	for i := 0; i < 64; i++ {
		tn, err := r.Register("t", float64(1+i%4))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 256; i++ {
		if d := r.Dispatch(i % 2); d != nil {
			clock.Advance(simtime.Millisecond)
			d.Complete(true)
		}
	}
	for _, c := range []struct {
		name string
		max  float64
		call func()
	}{
		{"Stats", 1, func() { _ = r.Stats() }},
		{"ShardStats", 1, func() { _ = r.ShardStats() }},
		{"JainIndex", 0, func() { _ = r.JainIndex() }},
		{"Rebalance", 5, func() {
			if n := r.Rebalance(); n != 0 {
				t.Fatalf("Rebalance moved %d tenants of a placement-balanced runtime", n)
			}
		}},
	} {
		if got := testing.AllocsPerRun(50, c.call); got > c.max {
			t.Errorf("%s allocates %.1f times per call, want ≤ %.0f", c.name, got, c.max)
		}
	}
}

// TestStatsReflectUnregister pins the synchronous part of the contract: a
// fully unregistered tenant disappears from Stats and per-shard tenant
// counts immediately.
func TestStatsReflectUnregister(t *testing.T) {
	r := rt.New(rt.Config{Workers: 2, Shards: 2, QueueCap: 4, Manual: true})
	defer r.Close()
	a, _ := r.Register("a", 2)
	b, _ := r.Register("b", 1)
	if got := len(r.Stats()); got != 2 {
		t.Fatalf("Stats lists %d tenants, want 2", got)
	}
	if err := r.Unregister(a); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if len(stats) != 1 || stats[0].Weight != 1 {
		t.Fatalf("Stats after Unregister: %+v", stats)
	}
	total := 0
	for _, ss := range r.ShardStats() {
		total += ss.Tenants
	}
	if total != 1 {
		t.Fatalf("shards report %d tenants, want 1", total)
	}
	_ = b
}
