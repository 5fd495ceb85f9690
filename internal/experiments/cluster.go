// Live cluster demo: the cross-machine reprise of this package's wall-clock
// fairness run. RunLive subjects one runtime to the weighted tier workload;
// RunLiveCluster subjects a whole cluster — N machines behind power-of-k
// placement and surplus-driven migration (internal/cluster) — to the same
// weighted tiers and measures how proportionally the *cluster* divided its
// aggregate capacity. The interesting number is the cluster-wide weighted
// Jain index: within a machine the shard scheduler provides the paper's SFS
// guarantees, so any cluster-level unfairness is placement or migration
// skew — exactly what the per-machine share table makes visible.
//
// Unlike RunLive's spinning tasks, the cluster tenants hold their granted
// slices with timed occupancy (a monotonic-clock wait), not CPU burn: a
// cluster of Machines × Workers slice servers must be emulable on any host,
// and spinning 128 workers on a small GOMAXPROCS turns Go's ~10 ms
// goroutine round-robin into multi-second charging noise that swamps the
// measurement. The contended resource — worker slots, granted in weighted
// virtual-time order and charged by measured wall occupancy — is exactly the
// same either way; demonstrating that charged shares track real CPU burn is
// RunLive's single-machine business.

package experiments

import (
	"fmt"
	"time"

	"sfsched/internal/cluster"
	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// LiveClusterConfig parameterizes one wall-clock cluster run.
type LiveClusterConfig struct {
	// Machines is the number of machines in the cluster (0 = 8, the
	// acceptance demo's floor).
	Machines int
	// K is the placement probe count (0 = 2, power-of-two-choices).
	K int
	// Workers is the worker pool size of each machine (0 = 16).
	Workers int
	// PerTier is the number of tenants per weight tier across the whole
	// cluster; the tier weights are 4:3:2:1 as in RunLive. 0 sizes the
	// population to twice the cluster's worker slots (Machines*Workers/2
	// per tier, 4 tiers), so every machine stays contended.
	PerTier int
	// Duration is how long the load runs.
	Duration time.Duration
	// SliceCap bounds per-dispatch worker occupancy exactly as
	// LiveConfig.SliceCap bounds CPU burn (0 = 25 ms).
	SliceCap time.Duration
	// MigrateEvery is the background migrator period (0 = the cluster
	// default; negative disables migration so placement alone is measured).
	MigrateEvery time.Duration
	// Tolerance is the migration hysteresis band (0 = the planner default).
	Tolerance float64
	// Seed seeds the deterministic placement sampler.
	Seed uint64
}

// LiveClusterTenant is one tenant's outcome in a live cluster run.
type LiveClusterTenant struct {
	Name    string
	Weight  float64
	Machine int // hosting machine at the end of the run
	Service time.Duration
	Share   float64 // fraction of all charged time, cluster-wide
	Ideal   float64 // weight-proportional ideal share
}

// LiveClusterMachine is one machine's rollup in a live cluster run.
type LiveClusterMachine struct {
	Machine int
	Workers int
	Tenants int
	Weight  float64
	Service time.Duration
	Share   float64 // fraction of cluster-wide charged service
	Jain    float64 // within-machine weighted Jain index
}

// LiveClusterResult is the outcome of one policy's wall-clock cluster run.
type LiveClusterResult struct {
	Policy     string
	Machines   int
	K          int
	Workers    int // per machine
	Tenants    []LiveClusterTenant
	Permachine []LiveClusterMachine
	Jain       float64 // cluster-wide weighted Jain index (1 = proportional)
	WorstErr   float64 // worst relative per-tenant share error vs the ideal
	Migrations int64   // completed cross-machine migrations
}

// RunLiveCluster subjects one policy to the weighted tier workload on a
// wall-clock cluster and measures how proportionally the cluster as a whole
// divided its capacity. Every tenant contends for the entire run (tasks
// occupy their granted slice and never finish), so after placement and
// migration settle, the weights — not machine boundaries — decide the ideal
// cluster-wide split. Proportionality requires contention: with fewer than
// Workers tenants on a machine everyone runs whenever they ask and the split
// is demand-bound, so size PerTier to keep tenants-per-machine above
// Workers (the defaults do).
func RunLiveCluster(policy rt.Policy, cfg LiveClusterConfig) LiveClusterResult {
	machines := cfg.Machines
	if machines <= 0 {
		machines = 8
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 16
	}
	perTier := cfg.PerTier
	if perTier <= 0 {
		perTier = machines * workers / 2 // 4 tiers: 2x the worker slots
		if perTier < machines {
			perTier = machines
		}
	}
	sliceCap := cfg.SliceCap
	if sliceCap <= 0 {
		sliceCap = 25 * time.Millisecond
	}
	c, err := cluster.New(cluster.Config{
		Machines:     machines,
		K:            cfg.K,
		Workers:      workers,
		Policy:       policy,
		QueueCap:     2,
		MigrateEvery: cfg.MigrateEvery,
		Tolerance:    cfg.Tolerance,
		Seed:         cfg.Seed,
	})
	if err != nil {
		panic(err) // static configuration; machines >= 1 by construction
	}
	tiers := []struct {
		name   string
		weight float64
	}{{"platinum", 4}, {"gold", 3}, {"silver", 2}, {"bronze", 1}}
	var totalWeight float64
	for _, tier := range tiers {
		for i := 0; i < perTier; i++ {
			t, err := c.Register(fmt.Sprintf("%s-%d", tier.name, i), tier.weight)
			if err != nil {
				panic(err)
			}
			totalWeight += tier.weight
			if err := t.SubmitTask(func(slice simtime.Duration) bool {
				d := slice.Std()
				if d > sliceCap {
					d = sliceCap
				}
				time.Sleep(d) // occupy the worker slot for the slice
				return false  // never finishes: stays backlogged, always contends
			}); err != nil {
				panic(err)
			}
		}
	}
	time.Sleep(cfg.Duration)

	res := LiveClusterResult{Machines: machines, K: cfg.K, Workers: workers}
	if res.K <= 0 {
		res.K = 2
	}
	stats := c.Stats()
	services := make([]simtime.Duration, len(stats))
	measured := make([]float64, len(stats))
	ideal := make([]float64, len(stats))
	weights := make([]float64, len(stats))
	for i, s := range stats {
		services[i] = s.Service
		weights[i] = s.Weight
		measured[i] = s.Share
		ideal[i] = s.Weight / totalWeight
		res.Tenants = append(res.Tenants, LiveClusterTenant{
			Name:    s.Name,
			Weight:  s.Weight,
			Machine: s.Machine,
			Service: s.Service.Std(),
			Share:   s.Share,
			Ideal:   ideal[i],
		})
	}
	for _, m := range c.MachineStats() {
		res.Permachine = append(res.Permachine, LiveClusterMachine{
			Machine: m.Machine,
			Workers: m.Workers,
			Tenants: m.Tenants,
			Weight:  m.Weight,
			Service: m.Service.Std(),
			Share:   m.Share,
			Jain:    m.Jain,
		})
	}
	res.Jain = metrics.JainIndex(services, weights)
	res.WorstErr = metrics.RatioError(measured, ideal)
	res.Migrations = c.Migrations()
	if r, ok := c.Node(0).(*rt.Runtime); ok {
		for _, ss := range r.ShardStats() {
			res.Policy = ss.Policy
		}
	}
	c.Close() // abandons the perpetual tasks
	return res
}

// ClusterMachineTable renders the per-machine rollup of one cluster run: the
// acceptance demo's "per-machine shares" table. With weight density equalized
// by placement and migration, each machine's share of the cluster's charged
// service tracks its share of the cluster's weight.
func ClusterMachineTable(res LiveClusterResult) string {
	tbl := &metrics.Table{
		Headers: []string{"machine", "workers", "tenants", "weight", "cpu_ms", "share", "jain"},
	}
	var totalWeight float64
	for _, m := range res.Permachine {
		totalWeight += m.Weight
	}
	for _, m := range res.Permachine {
		tbl.AddRow(
			fmt.Sprintf("%d", m.Machine),
			fmt.Sprintf("%d", m.Workers),
			fmt.Sprintf("%d", m.Tenants),
			fmt.Sprintf("%g/%g", m.Weight, totalWeight),
			fmt.Sprintf("%.1f", float64(m.Service.Microseconds())/1000),
			fmt.Sprintf("%.3f", m.Share),
			fmt.Sprintf("%.4f", m.Jain))
	}
	return tbl.String()
}

// ClusterFairnessTable renders cluster results as the cross-policy summary:
// one row per policy with the cluster-wide weighted Jain index, the worst
// per-tenant share error, and the migration count.
func ClusterFairnessTable(results []LiveClusterResult) string {
	tbl := &metrics.Table{
		Headers: []string{"policy", "machines", "k", "workers", "jain", "worst_err", "migrations"},
	}
	for _, res := range results {
		tbl.AddRow(res.Policy,
			fmt.Sprintf("%d", res.Machines),
			fmt.Sprintf("%d", res.K),
			fmt.Sprintf("%d", res.Workers),
			fmt.Sprintf("%.4f", res.Jain),
			fmt.Sprintf("%.1f%%", 100*res.WorstErr),
			fmt.Sprintf("%d", res.Migrations))
	}
	return tbl.String()
}
