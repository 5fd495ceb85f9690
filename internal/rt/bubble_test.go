//go:build goexperiment.synctest

// The bubble harness: the concurrent runtime — real workers, the intake ring,
// the enforcement and rebalance tickers — run in virtual time by
// testing/synctest. Run with
//
//	GOEXPERIMENT=synctest go test -race ./internal/rt -run Bubble
//
// A plain go test skips this file. Inside the bubble time.Now, timers and
// time.Sleep are virtual, and time moves only when every goroutine of the
// bubble is durably blocked, so a task that sleeps d is charged exactly d
// while CPU work costs nothing. Goroutines woken at the same instant still run
// in the Go scheduler's order: the assertions here are bounds, not traces.

package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/synctest"
	"time"

	"sfsched/internal/metrics"
	"sfsched/internal/simtime"
)

// inBubble runs f in a synctest bubble. It is the harness's one call site of
// the entry point, which go1.25 renames to synctest.Test. go1.24's Run gives
// the race detector no edge from the bubble's end to its own return, so a
// mutex hands what f wrote to the caller: under -race, a caller reading the
// results of a runtime with no background goroutine was flagged in 2 of 100
// runs without it.
func inBubble(f func()) {
	var handoff sync.Mutex
	handoff.Lock()
	synctest.Run(func() {
		defer handoff.Unlock()
		f()
	})
	handoff.Lock()
}

// runSelfFeeding runs a concurrent runtime built from cfg in a bubble, with
// one tenant per weight. Each tenant's task sleeps for task and then submits
// its own successor with NoWait, so the tenant always has one task
// outstanding — flood's and fairserver's pattern. After d of virtual time the
// chains stop; the runtime drains, and the tenants' statistics are returned
// with the runtime's migration and steal counts.
func runSelfFeeding(t *testing.T, cfg Config, weights []float64, task, d simtime.Duration) (stats []TenantStat, moves int64) {
	t.Helper()
	inBubble(func() {
		r := New(cfg)
		defer r.Close()
		var stop atomic.Bool
		for i, w := range weights {
			tn, err := r.Register(string(rune('a'+i)), w)
			if err != nil {
				t.Errorf("register %g: %v", w, err)
				return
			}
			var next Task
			next = func(simtime.Duration) bool {
				time.Sleep(task.Std())
				if !stop.Load() {
					if err := tn.SubmitTask(next, NoWait()); err != nil {
						t.Errorf("tenant %s: successor submit: %v", tn.th.Name, err)
					}
				}
				return true
			}
			if err := tn.SubmitTask(next); err != nil {
				t.Errorf("tenant %s: first submit: %v", tn.th.Name, err)
			}
		}
		time.Sleep(d.Std())
		stop.Store(true)
		r.Drain()
		stats, moves = r.Stats(), r.Migrations()+r.Steals()
	})
	return stats, moves
}

// TestBubbleContinuationKeepsItsLead: a tenant whose running task submits its
// own successor is continuously backlogged, so on a one-worker shard — SFQ,
// by §2.3 — it must keep its place across every completion. Two shards of one
// worker each get the weights 4+1 and 3+2; each shard's Σw is then 5, so a
// shard's fluid share of its own service is also the tenant's fluid share of
// the runtime's two workers.
//
// The bound is §2.3's. For tenants i and j continuously backlogged on one
// processor, |Wᵢ/wᵢ − Wⱼ/wⱼ| ≤ lᵢ/wᵢ + lⱼ/wⱼ, where l is a slice's length,
// at most the quantum q. Both share their shard's service S = Wᵢ + Wⱼ, so
// Wᵢ = wᵢS/(wᵢ+wⱼ) + D·wᵢwⱼ/(wᵢ+wⱼ) with |D| ≤ q(1/wᵢ + 1/wⱼ): each
// tenant's service is within q of its weighted part of S, whatever the
// weights. When the chains stop, the pair is backlogged until the first
// chain's last task ends; the other runs at most one more task. The bound is
// therefore q plus one task.
//
// A completion that departs the tenant before its successor is absorbed from
// the intake ring re-admits it by the wakeup rule, S = max(F, v), and the
// lead is forfeited on every task: 4:1 is delivered as 2:1, 200 ms off the
// fluid share over this run.
//
// Steal stays off: the four first submits race the idle workers in real
// time, and a thief could move a tenant before any service is charged. The
// defect does not depend on it, and steady-state chains never leave a worker
// idle to steal.
func TestBubbleContinuationKeepsItsLead(t *testing.T) {
	const (
		quantum = 10 * simtime.Millisecond
		task    = 200 * simtime.Microsecond
		run     = 1500 * simtime.Millisecond
	)
	weights := []float64{4, 3, 2, 1}
	stats, moves := runSelfFeeding(t, Config{
		Workers:     2,
		Quantum:     quantum,
		Preempt:     true,
		Sharding:    ShardingConfig{Shards: 2},
		Enforcement: EnforcementConfig{Enabled: true},
	}, weights, task, run)
	if t.Failed() {
		return
	}
	if moves != 0 {
		t.Fatalf("%d migrations and steals: the per-shard bound assumes fixed placement", moves)
	}
	var byShard [2]struct{ weight, service float64 }
	for _, s := range stats {
		byShard[s.Shard].weight += s.Weight
		byShard[s.Shard].service += float64(s.Service)
	}
	for sh, b := range byShard {
		if b.weight != 5 {
			t.Fatalf("shard %d holds Σw %g, want 5 (placement %+v)", sh, b.weight, stats)
		}
	}
	measured := make([]float64, len(stats))
	for i, s := range stats {
		measured[i] = float64(s.Service)
	}
	bound := float64(quantum) + float64(task)
	for _, s := range stats {
		b := byShard[s.Shard]
		fluid := s.Weight / b.weight * b.service
		if err := float64(s.Service) - fluid; err > bound || -err > bound {
			t.Errorf("tenant %s (w %g, shard %d): service %v, fluid %v: off by %v, bound %v (RatioError %.3f)",
				s.Name, s.Weight, s.Shard, s.Service, simtime.Duration(fluid), simtime.Duration(err),
				simtime.Duration(bound), metrics.RatioError(measured, weights))
		}
	}
}

// TestBubbleProportionalShares: four self-feeding tenants weighted 4:3:2:1
// share one shard of p = 2 workers for 1.5 virtual seconds, and each tenant's
// service must be within B of its w/Σw part of the total. B holds for any
// order in which the Go scheduler runs the events of one instant.
//
// Every slice is one task, so no slice is longer than l = 200 µs: the 10 ms
// quantum ends none. The weights are feasible (4/10 ≤ 1/p), so φ = w. Every
// tenant stays backlogged until the stop, so a slice of length s moves only
// its own tenant's start tag, by s/w. A tenant's surplus α = w·(S − v) grows
// only when it completes a slice, by at most l, since v never falls.
//
// Claim: no surplus exceeds M = (n+2)·l, with n = 4 tenants. Suppose none has
// before the completion at t of a slice picked at τ with surplus a > 0.
//   - The holder h of v is unique and runs on the other worker: a waiting
//     tenant with surplus 0 would have been picked. So a is the least surplus
//     of the n−1 others, all of them waiting at τ.
//   - Let e be the last instant before τ at which another tenant j had a tag
//     ≤ h's. At e, j completed a slice and passed h, so j's surplus is at
//     most that slice, ≤ l. Q, the sum of the surpluses of all tenants but h,
//     is then at most l + (n−2)·M.
//   - From e to τ, h runs on one worker throughout. The others complete at
//     most τ−e+l of service (one worker, plus a slice begun before e), which
//     adds that much to Q. h completes at least τ−e−l, which raises v by that
//     over w_h and lowers Q by Σ_{k≠h} w_k/w_h ≥ 1 times it (p = 2, feasible).
//   - So Q(τ) ≤ Q(e) + 2l, and a ≤ Q(τ)/(n−1). The slice ends at a surplus of
//     at most a + l ≤ (3l + (n−2)·M)/(n−1) + l = M.
//
// After the stop instant each tenant has at most one task left, which submits
// nothing, and before it each has service w·S. With A_i = w_i·(S_i − v) and
// ΣA = Σw·(S̄ − v), the error w_i·(S_i − S̄) = A_i − (w_i/Σw)·ΣA lies in
// [−(n−1)·M/p, M], because the holder's A is 0. The last tasks add at most l
// and take at most n·l/p. So B = ((n−1)·M + n·l)/p = 11·l = 2.2 ms. The
// runtime is ≈ 0.25 ms off. Two swapped weights put two tenants 300 ms off.
func TestBubbleProportionalShares(t *testing.T) {
	const (
		quantum = 10 * simtime.Millisecond
		task    = 200 * simtime.Microsecond
		run     = 1500 * simtime.Millisecond
		p, n    = 2, 4
		m       = (n + 2) * task
		bound   = ((n-1)*m + n*task) / p
	)
	weights := []float64{4, 3, 2, 1}
	stats, moves := runSelfFeeding(t, Config{Workers: p, Quantum: quantum}, weights, task, run)
	if t.Failed() {
		return
	}
	if moves != 0 {
		t.Fatalf("%d migrations and steals on a one-shard runtime", moves)
	}
	var total, sumW float64
	measured := make([]float64, len(stats))
	for i, s := range stats {
		total += float64(s.Service)
		sumW += weights[i]
		measured[i] = float64(s.Service)
	}
	for i, s := range stats {
		fluid := weights[i] / sumW * total
		if err := float64(s.Service) - fluid; err > float64(bound) || -err > float64(bound) {
			t.Errorf("tenant %s (w %g): service %v, fluid %v: off by %v, bound %v (RatioError %.3f)",
				s.Name, weights[i], s.Service, simtime.Duration(fluid), simtime.Duration(err),
				bound, metrics.RatioError(measured, weights))
		}
	}
}

// TestBubbleIdleWorkersPark: an idle worker polls its shard off the lock
// before it parks, and the poll must end by itself. After synctest.Wait every
// worker has parked, so each shard's idlers equals its worker count: on one
// shard of two workers, on two shards of one worker with Steal armed, and
// again after a task has run. The poll is bounded by a probe count because
// no time passes in the bubble while a goroutine spins: with a poll bounded
// by the clock instead, synctest.Wait never returns and the test times out.
func TestBubbleIdleWorkersPark(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"one shard of two", Config{Workers: 2}},
		{"two shards of one, steal", Config{Workers: 2, Sharding: ShardingConfig{Shards: 2, Steal: true}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			inBubble(func() {
				r := New(c.cfg)
				defer r.Close()
				parked := func(when string) {
					synctest.Wait()
					for _, sh := range r.shards {
						if got := sh.idlers.Load(); got != int64(sh.workers) {
							t.Errorf("%s: %d of shard %d's %d workers parked", when, got, sh.id, sh.workers)
						}
					}
				}
				parked("at start")
				tn, err := r.Register("t", 1)
				if err != nil {
					t.Error(err)
					return
				}
				var ran atomic.Bool
				if err := tn.SubmitTask(Once(func() { ran.Store(true) })); err != nil {
					t.Error(err)
					return
				}
				parked("after a task")
				if !ran.Load() {
					t.Error("the task never ran")
				}
			})
		})
	}
}

// TestBubbleIdleWorkerSteals: two self-feeding tenants of equal weight sit on
// shard 0 of two one-worker shards with Steal armed, and nothing is runnable
// on shard 1. The run is shorter than DefaultRebalanceEvery, so only a steal
// can give shard 1's worker anything to do, and with it each worker runs one
// tenant back to back.
//
// The bound: shard 0's worker is busy from the first submit to the stop at T,
// and the tasks in flight at T finish, so its service lies in [T, T + l] for
// task length l. Its first dispatch leaves the other tenant ready and offers
// it to shard 1, whose worker steals it from its poll, or is signalled if it
// has parked. A worker that parked just after that offer is offered again at
// the next dispatch, one task later, so shard 1's service lies in
// [T − l, T + l], and the two differ by at most 2l. With Steal disarmed shard
// 1 serves nothing.
func TestBubbleIdleWorkerSteals(t *testing.T) {
	const (
		task = 200 * simtime.Microsecond
		run  = 50 * simtime.Millisecond
	)
	if run.Std() >= DefaultRebalanceEvery {
		t.Fatalf("run %v reaches the rebalance period %v", run, DefaultRebalanceEvery)
	}
	var service [2]simtime.Duration
	var steals int64
	inBubble(func() {
		r := New(Config{Workers: 2, Sharding: ShardingConfig{Shards: 2, Steal: true}})
		defer r.Close()
		// Placement alternates between equally loaded shards: register four
		// and unregister the two that land on shard 1.
		var on [2][]*Tenant
		for _, name := range []string{"a", "x", "b", "y"} {
			tn, err := r.Register(name, 1)
			if err != nil {
				t.Error(err)
				return
			}
			id := tn.sh.Load().id
			on[id] = append(on[id], tn)
		}
		for _, tn := range on[1] {
			if err := r.Unregister(tn); err != nil {
				t.Error(err)
				return
			}
		}
		on0 := on[0]
		if len(on0) != 2 {
			t.Errorf("%d tenants placed on shard 0, want 2", len(on0))
			return
		}
		var stop atomic.Bool
		for _, tn := range on0 {
			var next Task
			next = func(simtime.Duration) bool {
				time.Sleep(task.Std())
				if !stop.Load() {
					if err := tn.SubmitTask(next, NoWait()); err != nil {
						t.Errorf("tenant %s: successor submit: %v", tn.th.Name, err)
					}
				}
				return true
			}
			if err := tn.SubmitTask(next); err != nil {
				t.Errorf("tenant %s: first submit: %v", tn.th.Name, err)
			}
		}
		time.Sleep(run.Std())
		stop.Store(true)
		r.Drain()
		for i, st := range r.ShardStats() {
			service[i] = st.Service
		}
		steals = r.Steals()
	})
	if t.Failed() {
		return
	}
	if d := service[0] - service[1]; d > 2*task || -d > 2*task {
		t.Errorf("shard services %v and %v differ by %v, bound %v (%d steals)", service[0], service[1], d, 2*task, steals)
	}
}

// TestBubbleCloseReleasesDrain: a Close ends a Drain it races. On a Manual
// runtime one tenant holds two tasks, one of them in flight, so the Drain
// blocked in its own goroutine cannot return by itself (synctest.Wait shows it
// waiting). Close must release it; the abandoned slice's late Complete must
// return, not panic; the invariants must hold; and the task the slice left
// queued is still counted by Queued.
func TestBubbleCloseReleasesDrain(t *testing.T) {
	inBubble(func() {
		r := New(Config{Workers: 1, Manual: true, Clock: NewFakeClock()})
		tn, err := r.Register("t", 1)
		if err != nil {
			t.Error(err)
			return
		}
		for range 2 {
			if err := tn.SubmitTask(Once(func() {})); err != nil {
				t.Error(err)
				return
			}
		}
		d := r.Dispatch(0)
		if d == nil {
			t.Error("nothing dispatched")
			return
		}
		drained := make(chan struct{})
		go func() {
			r.Drain()
			close(drained)
		}()
		synctest.Wait()
		select {
		case <-drained:
			t.Error("Drain returned with two tasks outstanding")
			return
		default:
		}
		r.Close()
		synctest.Wait()
		select {
		case <-drained:
		default:
			t.Error("Close left Drain waiting")
			return
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("Complete after Close panicked: %v", p)
				}
			}()
			d.Complete(true)
		}()
		if err := r.CheckInvariants(); err != nil {
			t.Error(err)
		}
		if q := tn.Queued(); q != 1 {
			t.Errorf("Queued() = %d after Close abandoned one task, want 1", q)
		}
	})
}
