// Live cross-policy comparison: the paper's §4 evaluation is comparative —
// SFS against multiprocessor SFQ and Linux time sharing — and every other
// experiment in this package replays it inside the deterministic simulation.
// This file reprises the comparison on the wall-clock runtime instead: the
// same weighted tier workload runs under each policy on real goroutines with
// measured monotonic-clock charging, and the resulting per-tenant shares
// reproduce Figure 6(b)'s qualitative split on live hardware — proportional
// allocation under the fair-queueing family (weighted Jain ≈ 1), weight-blind
// allocation under time sharing (weighted Jain ≪ 1). cmd/livecmp tabulates
// it; internal/rt's policies_test drives the same sharded code path
// deterministically on a fake clock.

package experiments

import (
	"fmt"
	"runtime"
	"time"

	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// LiveConfig parameterizes one wall-clock policy run.
type LiveConfig struct {
	// Workers is the runtime worker pool size (0 = GOMAXPROCS).
	Workers int
	// Shards is the dispatch shard count (0 = 1, the central runqueue).
	Shards int
	// PerTier is the number of tenants per weight tier; the tier weights
	// are 4:3:2:1 (platinum/gold/silver/bronze), as in examples/fairserver.
	PerTier int
	// Duration is how long the load runs.
	Duration time.Duration
	// SliceCap bounds how much CPU a tenant burns per dispatch: each task
	// spins for min(granted timeslice, SliceCap) and continues on the next
	// dispatch, the runtime's rendering of the paper's compute-bound
	// workload. 0 = 25 ms, fine enough that a run covers many quanta of
	// every policy. The cap is workload cooperation, not policy
	// distortion: all policies are built for variable-length quanta.
	SliceCap time.Duration
	// Preempt arms cooperative wakeup preemption (rt.Config.Preempt): the
	// compute-bound tasks then poll SliceCtx.Preempted at millisecond
	// checkpoints and yield their slice early when a woken tenant out-ranks
	// them. Fairness is unaffected either way (the flag trades only
	// dispatch latency); the option exists so the live comparison can be
	// run under the exact configuration the Figure 6(c) latency reprise
	// uses.
	Preempt bool
}

// LiveTenant is one tenant's outcome in a live run.
type LiveTenant struct {
	Name    string
	Weight  float64
	Shard   int
	Service time.Duration
	Share   float64 // fraction of all charged time
	Ideal   float64 // weight-proportional ideal share
}

// LiveResult is the outcome of one policy's wall-clock run.
type LiveResult struct {
	Policy     string // scheduler's Name() as reported by the shards
	Workers    int
	Shards     int
	Tenants    []LiveTenant
	Jain       float64 // weighted Jain index of charged service (1 = proportional)
	WorstErr   float64 // worst relative per-tenant share error vs the ideal
	Migrations int64
}

// RunLive subjects one policy to the weighted tier workload on the
// wall-clock runtime and measures how proportionally it divided the
// machine. Every tenant stays compute-bound for the whole run (tasks spin
// through their slice and never finish), so the weights — not the
// submission pattern — decide the ideal split.
func RunLive(policy rt.Policy, cfg LiveConfig) LiveResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	perTier := cfg.PerTier
	if perTier <= 0 {
		perTier = 2
	}
	sliceCap := cfg.SliceCap
	if sliceCap <= 0 {
		sliceCap = 25 * time.Millisecond
	}
	r := rt.New(rt.Config{Workers: workers, Shards: shards, Policy: policy,
		QueueCap: 2, Preempt: cfg.Preempt})
	tiers := []struct {
		name   string
		weight float64
	}{{"platinum", 4}, {"gold", 3}, {"silver", 2}, {"bronze", 1}}
	var weights []float64
	var totalWeight float64
	for _, tier := range tiers {
		for i := 0; i < perTier; i++ {
			tn, err := r.Register(fmt.Sprintf("%s-%d", tier.name, i), tier.weight)
			if err != nil {
				panic(err) // static configuration; cannot fail under valid weights
			}
			weights = append(weights, tier.weight)
			totalWeight += tier.weight
			var err2 error
			if cfg.Preempt {
				err2 = tn.SubmitTask(nil, rt.Preemptible(func(ctx rt.SliceCtx) bool {
					d := ctx.Slice().Std()
					if d > sliceCap {
						d = sliceCap
					}
					// Burn the slice in millisecond checkpoints, yielding
					// early when the shard raises the preemption flag.
					const grant = time.Millisecond
					for burned := time.Duration(0); burned < d; {
						c := grant
						if rest := d - burned; rest < c {
							c = rest
						}
						spinFor(c)
						burned += c
						if ctx.Preempted() {
							break
						}
					}
					return false // compute-bound: never finishes, stays backlogged
				}))
			} else {
				err2 = tn.SubmitTask(func(slice simtime.Duration) bool {
					d := slice.Std()
					if d > sliceCap {
						d = sliceCap
					}
					spinFor(d)
					return false // compute-bound: never finishes, stays backlogged
				})
			}
			if err2 != nil {
				panic(err2)
			}
		}
	}
	time.Sleep(cfg.Duration)
	stats := r.Stats()
	res := LiveResult{Workers: workers, Shards: shards}
	services := make([]simtime.Duration, len(stats))
	measured := make([]float64, len(stats))
	ideal := make([]float64, len(stats))
	for i, s := range stats {
		services[i] = s.Service
		measured[i] = s.Share
		ideal[i] = s.Weight / totalWeight
		res.Tenants = append(res.Tenants, LiveTenant{
			Name:    s.Name,
			Weight:  s.Weight,
			Shard:   s.Shard,
			Service: s.Service.Std(),
			Share:   s.Share,
			Ideal:   ideal[i],
		})
	}
	res.Jain = metrics.JainIndex(services, weights)
	res.WorstErr = metrics.RatioError(measured, ideal)
	res.Migrations = r.Migrations()
	for _, ss := range r.ShardStats() {
		res.Policy = ss.Policy // every shard runs the same policy
	}
	r.Close() // abandons the perpetual tasks
	return res
}

// CrossPolicyLive runs the same live workload under each policy in turn and
// returns the per-policy results, the wall-clock reprise of the paper's
// cross-policy fairness comparison.
func CrossPolicyLive(policies []rt.Policy, cfg LiveConfig) []LiveResult {
	out := make([]LiveResult, 0, len(policies))
	for _, p := range policies {
		out = append(out, RunLive(p, cfg))
	}
	return out
}

// FairnessTable renders results as the Figure-6(b)-style summary: one row
// per policy with its weighted Jain index and worst share error.
func FairnessTable(results []LiveResult) string {
	tbl := &metrics.Table{
		Headers: []string{"policy", "workers", "shards", "jain", "worst_err", "migrations"},
	}
	for _, res := range results {
		tbl.AddRow(res.Policy,
			fmt.Sprintf("%d", res.Workers),
			fmt.Sprintf("%d", res.Shards),
			fmt.Sprintf("%.4f", res.Jain),
			fmt.Sprintf("%.1f%%", 100*res.WorstErr),
			fmt.Sprintf("%d", res.Migrations))
	}
	return tbl.String()
}

// spinFor burns CPU for about d of wall-clock time.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
