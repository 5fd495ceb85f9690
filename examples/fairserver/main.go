// fairserver demonstrates sfsrt, the concurrent wall-clock runtime: weighted
// tenants flood a shared worker pool with real spinning tasks and receive
// wall-clock CPU time in proportion to their weights — the paper's
// guarantee, delivered by goroutines and a monotonic clock instead of a
// simulated kernel. With more than one shard the pool dispatches from
// per-CPU runqueues and the background rebalancer keeps each shard's
// sub-share of the total weight proportional to its processor count.
//
//	go run ./examples/fairserver [-policy sfs] [-workers N] [-shards N] [-per-tier 4] [-duration 1s] [-cost 200µs] [-preempt] [-steal]
//
// -policy picks the dispatch policy per shard (sfs, sfq, sfq+readjust,
// timeshare, stride, bvt, lottery, hier): the same live load under the
// paper's scheduler or any of its baselines, so the Figure 6(b) contrast —
// proportional shares under SFS/SFQ, weight-blind equal shares under
// timeshare — reproduces on wall-clock hardware. The worker pool defaults to
// GOMAXPROCS (all schedulable cores) and the shard count to one shard per
// ~4 tenants, capped at the worker count. Each tenant keeps itself backlogged
// by resubmitting from inside its own tasks, so the pool stays
// capacity-limited and the weights — not the submission pattern — decide the
// shares.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"sfsched"
	"sfsched/internal/metrics"
	"sfsched/internal/readjust"
)

// quantum is the policy's maximum quantum, the unit the lag line is printed in.
const quantum = 10 * sfsched.Millisecond

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func main() {
	policy := flag.String("policy", "sfs",
		"dispatch policy: "+strings.Join(sfsched.LivePolicies(), ", "))
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "dispatch shards (0 = auto: ~1 per 4 tenants, capped at workers; 1 = central lock)")
	perTier := flag.Int("per-tier", 4, "tenants per weight tier (4 tiers: platinum/gold/silver/bronze)")
	duration := flag.Duration("duration", time.Second, "how long to serve load")
	cost := flag.Duration("cost", 200*time.Microsecond, "CPU cost of one task")
	preempt := flag.Bool("preempt", false,
		"arm cooperative wakeup preemption; tasks poll SliceCtx.Preempted at 100µs checkpoints and yield mid-task when flagged")
	steal := flag.Bool("steal", false,
		"arm idle-path cross-shard work stealing; an idle worker pulls the highest-surplus ready tenant from the most backlogged sibling shard before parking")
	flag.Parse()
	mkSched, err := sfsched.PolicyByName(*policy, quantum)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *perTier < 1 {
		*perTier = 1
	}
	tiers := []struct {
		name   string
		weight float64
	}{
		{"platinum", 4},
		{"gold", 3},
		{"silver", 2},
		{"bronze", 1},
	}
	nTenants := len(tiers) * *perTier
	if *shards <= 0 {
		*shards = nTenants / 4
		if *shards > *workers {
			*shards = *workers
		}
		if *shards < 1 {
			*shards = 1
		}
	}

	r := sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers:  *workers,
		Policy:   mkSched,
		Preempt:  *preempt,
		Sharding: sfsched.ShardingConfig{Shards: *shards, Steal: *steal},
		Intake:   sfsched.IntakeConfig{QueueCap: 8},
	})
	defer r.Close()

	var weights []float64
	var stop atomic.Bool
	for _, tier := range tiers {
		for i := 0; i < *perTier; i++ {
			weights = append(weights, tier.weight)
			tn, err := r.Register(fmt.Sprintf("%s-%d", tier.name, i), tier.weight)
			if err != nil {
				panic(err)
			}
			if *preempt {
				// Preemptible variant: burn the task's cost in 100µs
				// checkpoints and yield the processor mid-task when the
				// shard flags this slice; the unfinished remainder stays at
				// the backlog head and continues on a later dispatch.
				remaining := *cost
				var task sfsched.PreemptibleTask
				task = func(ctx sfsched.SliceCtx) bool {
					const checkpoint = 100 * time.Microsecond
					for remaining > 0 {
						c := checkpoint
						if remaining < c {
							c = remaining
						}
						spin(c)
						remaining -= c
						if remaining > 0 && ctx.Preempted() {
							return false // yield; resume on the next dispatch
						}
					}
					remaining = *cost
					if !stop.Load() {
						_ = tn.SubmitTask(nil, sfsched.NoWait(), sfsched.Preemptible(task)) // best-effort refeed
					}
					return true
				}
				if err := tn.SubmitTask(nil, sfsched.Preemptible(task)); err != nil {
					panic(err)
				}
				continue
			}
			var task sfsched.RuntimeTask
			task = sfsched.RunOnce(func() {
				spin(*cost)
				if !stop.Load() {
					_ = tn.SubmitTask(task, sfsched.NoWait()) // best-effort refeed; backpressure is fine
				}
			})
			if err := tn.SubmitTask(task); err != nil {
				panic(err)
			}
		}
	}

	fmt.Printf("fairserver: policy %s, %d workers, %d shards, %d tenants, %v of load\n",
		*policy, *workers, *shards, nTenants, *duration)
	time.Sleep(*duration)
	stop.Store(true)
	r.Drain()

	stats := r.Stats()
	tbl := &metrics.Table{
		Headers: []string{"tenant", "weight", "shard", "cpu_ms", "share", "ideal", "lag_ms"},
	}
	// The ideal shares are GMS's rates over the workers (readjust.Rates),
	// the yardstick Stats' lags are taken against.
	measured := make([]float64, len(stats))
	ideal := readjust.Rates(weights, *workers)
	var preemptions int64
	var maxLag sfsched.Duration
	for i, s := range stats {
		measured[i] = s.Share
		ideal[i] /= float64(min(len(weights), *workers)) // Σ rates
		preemptions += s.Preemptions
		maxLag = max(maxLag, s.Lag, -s.Lag)
		tbl.AddRow(s.Name,
			fmt.Sprintf("%g", s.Weight),
			fmt.Sprintf("%d", s.Shard),
			fmt.Sprintf("%.1f", s.Service.Milliseconds()),
			fmt.Sprintf("%.3f", s.Share),
			fmt.Sprintf("%.3f", ideal[i]),
			fmt.Sprintf("%+.1f", s.Lag.Milliseconds()))
	}
	fmt.Print(tbl.String())

	shardTbl := &metrics.Table{
		Headers: []string{"shard", "policy", "workers", "tenants", "weight", "cpu_ms", "share", "ideal"},
	}
	for _, ss := range r.ShardStats() {
		shardTbl.AddRow(
			fmt.Sprintf("%d", ss.Shard),
			ss.Policy,
			fmt.Sprintf("%d", ss.Workers),
			fmt.Sprintf("%d", ss.Tenants),
			fmt.Sprintf("%.1f", ss.Weight),
			fmt.Sprintf("%.1f", ss.Service.Milliseconds()),
			fmt.Sprintf("%.3f", ss.Share),
			fmt.Sprintf("%.3f", float64(ss.Workers)/float64(*workers)))
	}
	fmt.Print(shardTbl.String())
	fmt.Printf("max |lag| %.2f quanta, worst share error %.1f%%, migrations %d, steals %d, preemptions %d\n",
		float64(maxLag)/float64(quantum), 100*metrics.RatioError(measured, ideal), r.Migrations(), r.Steals(), preemptions)
}
