// Steal ablation: the §1.2 imbalance scenario as a controlled experiment.
//
// The paper's argument against partitioned scheduling is that infrequent
// rebalancing leaves processors idle while a neighbor's runqueue is backlogged
// (§1.2); PR 3's sharded dispatch reintroduced exactly that exposure between
// rebalancer passes. This experiment constructs the worst case — every active
// tenant piled onto one shard, every other shard idle — and measures, in
// deterministic Manual lockstep, how each recovery mechanism closes it:
// idle-path work stealing (Config.Steal) recovers within the first tick, the
// periodic rebalancer recovers only at its next pass, and a runtime with
// neither stays pinned at one busy shard for the whole run. cmd/livecmp
// tabulates the three cells side by side (-steal).
package experiments

import (
	"fmt"

	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// Steal-ablation cell modes: which recovery mechanism the run arms.
const (
	StealModeNeither   = "neither"    // no stealing, no rebalancing: the imbalance persists
	StealModeRebalance = "rebalancer" // periodic surplus-driven rebalancing only
	StealModeSteal     = "steal"      // idle-path work stealing only
)

// StealAblationConfig parameterizes the imbalance scenario. Every shard has
// exactly one worker, so "busy shards" and "busy workers" coincide and the
// utilization numbers read directly as the fraction of the machine doing
// work.
type StealAblationConfig struct {
	// Shards is the shard (and worker) count. 0 = 8.
	Shards int
	// Actives is how many always-backlogged tenants start piled on shard 0.
	// 0 = Shards, the assignment where perfect recovery uses every worker.
	Actives int
	// Ticks is the lockstep tick count. 0 = 400.
	Ticks int
	// Slice is the simulated slice per dispatch. 0 = 5ms.
	Slice simtime.Duration
	// RebalanceEvery is the rebalancer period in ticks for the rebalancer
	// cell. 0 = 50.
	RebalanceEvery int
}

// StealAblationResult is one cell's outcome.
type StealAblationResult struct {
	Mode string
	// RecoveryTick is the first tick on which every recoverable worker
	// dispatched (full utilization), or -1 if the run never got there.
	RecoveryTick int
	// Utilization is the mean fraction of workers dispatching per tick.
	Utilization float64
	// Completed counts tasks completed over the run (the within-run
	// throughput the acceptance gate compares across cells).
	Completed int
	// Jain is the weighted Jain index over the active tenants at the end.
	Jain       float64
	Steals     int64
	Migrations int64
}

func (c *StealAblationConfig) defaults() {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Actives <= 0 {
		c.Actives = c.Shards
	}
	if c.Ticks <= 0 {
		c.Ticks = 400
	}
	if c.Slice <= 0 {
		c.Slice = 5 * simtime.Millisecond
	}
	if c.RebalanceEvery <= 0 {
		c.RebalanceEvery = 50
	}
}

// StealAblation runs the three cells — neither, rebalancer-only,
// steal-only — on the identical deterministic workload.
func StealAblation(cfg StealAblationConfig) []StealAblationResult {
	cfg.defaults()
	return []StealAblationResult{
		stealCell(cfg, StealModeNeither),
		stealCell(cfg, StealModeRebalance),
		stealCell(cfg, StealModeSteal),
	}
}

// stealCell builds the pile-up and drives the runtime in Manual lockstep.
// Least-loaded placement breaks ties toward shard 0, so registering one
// active while every shard is equally loaded pins it there; Shards-1 ballast
// tenants then re-level the other shards for the next round, and unregistering
// all ballast at the end leaves every active on shard 0 — with the weight
// imbalance fully visible, so the rebalancer cell genuinely can recover at
// its next pass — while Shards-1 single-worker shards sit idle.
func stealCell(cfg StealAblationConfig, mode string) StealAblationResult {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{
		Workers:  cfg.Shards, // one worker per shard
		Shards:   cfg.Shards,
		Quantum:  2 * cfg.Slice,
		Clock:    clock,
		QueueCap: 4,
		Manual:   true,
		Steal:    mode == StealModeSteal,
	})
	defer r.Close()
	var actives, ballast []*rt.Tenant
	for round := 0; round < cfg.Actives; round++ {
		tn, err := r.Register(fmt.Sprintf("active-%d", round), 1)
		if err != nil {
			panic(err)
		}
		if tn.Shard() != 0 {
			panic(fmt.Sprintf("experiments: active %d placed on shard %d, want 0", round, tn.Shard()))
		}
		actives = append(actives, tn)
		for i := 1; i < cfg.Shards; i++ {
			bt, err := r.Register("ballast", 1)
			if err != nil {
				panic(err)
			}
			ballast = append(ballast, bt)
		}
	}
	for _, tn := range ballast {
		if err := r.Unregister(tn); err != nil {
			panic(err)
		}
	}
	refill := func() {
		for _, tn := range actives {
			for tn.Queued() < 2 {
				if err := tn.SubmitTask(rt.Once(func() {}), rt.NoWait()); err != nil {
					panic(err)
				}
			}
		}
	}
	refill()
	full := cfg.Actives
	if full > cfg.Shards {
		full = cfg.Shards
	}
	res := StealAblationResult{Mode: mode, RecoveryTick: -1}
	busy := 0
	ds := make([]*rt.Dispatched, 0, cfg.Shards)
	for tick := 0; tick < cfg.Ticks; tick++ {
		ds = ds[:0]
		for w := 0; w < cfg.Shards; w++ {
			d := r.Dispatch(w)
			if d == nil && mode == StealModeSteal && r.TrySteal(w) {
				d = r.Dispatch(w)
			}
			if d != nil {
				ds = append(ds, d)
			}
		}
		clock.Advance(cfg.Slice)
		for _, d := range ds {
			d.Complete(true)
		}
		busy += len(ds)
		res.Completed += len(ds)
		if res.RecoveryTick < 0 && len(ds) == full {
			res.RecoveryTick = tick
		}
		refill()
		if mode == StealModeRebalance && (tick+1)%cfg.RebalanceEvery == 0 {
			r.Rebalance()
		}
	}
	res.Utilization = float64(busy) / float64(cfg.Ticks*cfg.Shards)
	res.Jain = r.JainIndex()
	res.Steals = r.Steals()
	res.Migrations = r.Migrations()
	return res
}

// StealAblationTable renders the three cells side by side.
func StealAblationTable(results []StealAblationResult) string {
	tbl := &metrics.Table{
		Headers: []string{"mode", "recovery_tick", "utilization", "completed", "jain", "steals", "migrations"},
	}
	for _, res := range results {
		recovery := fmt.Sprintf("%d", res.RecoveryTick)
		if res.RecoveryTick < 0 {
			recovery = "never"
		}
		tbl.AddRow(res.Mode, recovery,
			fmt.Sprintf("%.3f", res.Utilization),
			fmt.Sprintf("%d", res.Completed),
			fmt.Sprintf("%.4f", res.Jain),
			fmt.Sprintf("%d", res.Steals),
			fmt.Sprintf("%d", res.Migrations))
	}
	return tbl.String()
}
