package main

import (
	"fmt"
	"maps"
	"slices"

	"sfsched"
)

// endToEnd and perLayer are the metric names of BENCHMARK.json, in print
// order; the tests hold the two lists and the file to each other.
var endToEnd = []metric{
	{"setup_s", 0, "s"},
	{"ops_per_s", 0, "1/s"},
	{"lat_p50_us", 0, "us"},
	{"peak_rss_mb", 0, "MB"},
}

var perLayer = []metric{
	// policy, internal/core
	{"core.pick_ns", 0, "ns"}, {"core.charge_ns", 0, "ns"}, {"core.add_ns", 0, "ns"},
	{"core.remove_ns", 0, "ns"}, {"core.addbatch_ns_per_thread", 0, "ns"},
	// diagnostics no workload exercises today
	{"policy.sfq.cycle_ns", 0, "ns"}, {"policy.bvt.cycle_ns", 0, "ns"}, {"policy.hier.cycle_ns", 0, "ns"},
	{"runqueue.heap.insert_ns", 0, "ns"}, {"runqueue.list.insert_ns", 0, "ns"},
	{"readjust.pass_ns", 0, "ns"}, {"metrics.hist_record_ns", 0, "ns"},
	// internal/engine
	{"engine.pick_ns", 0, "ns"}, {"engine.begin_ns", 0, "ns"}, {"engine.settle_ns", 0, "ns"},
	{"engine.admit_ns", 0, "ns"}, {"engine.admitbatch_ns_per_thread", 0, "ns"}, {"engine.depart_ns", 0, "ns"},
	{"engine.interim_ns", 0, "ns"}, {"engine.rank_ns", 0, "ns"}, {"engine.transferlead_ns", 0, "ns"},
	{"engine.self_cycle_ns", 0, "ns"},
	// internal/rt, Manual mode, timed calls
	{"rt.submit_ring_ns", 0, "ns"}, {"rt.submit_wake_ns", 0, "ns"}, {"rt.dispatch_ns", 0, "ns"},
	{"rt.complete_ns", 0, "ns"}, {"rt.complete_block_ns", 0, "ns"}, {"rt.self_cycle_ns", 0, "ns"},
	{"rt.enforce_pass_us", 0, "us"}, {"rt.trysteal_hit_ns", 0, "ns"}, {"rt.trysteal_miss_ns", 0, "ns"},
	{"rt.rebalance_pass_us", 0, "us"}, {"rt.stats_call_us", 0, "us"}, {"rt.register_us", 0, "us"},
	{"rt.unregister_us", 0, "us"}, {"rt.setweight_us", 0, "us"}, {"rt.preempt_armed_delta_ns", 0, "ns"},
	{"rt.enforce_armed_delta_ns", 0, "ns"}, {"rt.steal_armed_delta_ns", 0, "ns"}, {"rt.allocs_per_task", 0, "count"},
	// internal/rt, live runs, read from the public statistics
	{"rt.intake_p50_us", 0, "us"}, {"rt.intake_p99_us", 0, "us"}, {"rt.ready_p50_us", 0, "us"},
	{"rt.ready_p99_us", 0, "us"}, {"rt.wakedisp_p50_us", 0, "us"}, {"rt.wakedisp_p99_us", 0, "us"},
	{"rt.steals", 0, "count"}, {"rt.migrations", 0, "count"}, {"rt.handoffs", 0, "count"},
	{"rt.preemptions", 0, "count"}, {"rt.interims", 0, "count"},
	// internal/cluster
	{"cluster.submit_ns", 0, "ns"}, {"cluster.self_submit_ns", 0, "ns"}, {"cluster.register_us", 0, "us"},
	{"cluster.rebalance_pass_us", 0, "us"}, {"cluster.migrate_us", 0, "us"}, {"cluster.stats_call_us", 0, "us"},
	// internal/machine
	{"machine.event_ns", 0, "ns"}, {"machine.self_event_ns", 0, "ns"},
	// the harness, and the figures the stability rule keeps out of the end-to-end set
	{"gen.late_p50_us", 0, "us"}, {"gen.late_p99_us", 0, "us"},
	{"wake.lat_p50_us", 0, "us"}, {"wake.lat_p90_us", 0, "us"}, {"wake.lat_p99_us", 0, "us"}, {"wake.lat_p999_us", 0, "us"},
	{"wake.samples", 0, "count"},
	{"flood.cost_per_task_ns", 0, "ns"}, {"flood.lat_p90_us", 0, "us"}, {"flood.lat_p99_us", 0, "us"}, {"flood.class_jain", 0, "ratio"},
	{"trace.overhead_share", 0, "ratio"}, {"residual.concurrency_ns", 0, "ns"}, {"residual.wake_ns", 0, "ns"},
	{"hogs.lat_p90_us", 0, "us"}, {"hogs.lat_p99_us", 0, "us"}, {"hogs.share_err_max", 0, "ratio"}, {"hogs.jain", 0, "ratio"},
	{"sim.gms_lag_max_ms", 0, "ms"},
}

// weighted averages per-shard latency quantiles by their sample counts: the
// runtime exports quantiles per shard, not the histograms.
func weighted(stats []sfsched.LatencyStat, q func(sfsched.LatencyStat) sfsched.Duration) float64 {
	var sum, n float64
	for _, s := range stats {
		sum += float64(q(s)) * float64(s.Count)
		n += float64(s.Count)
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func p50(s sfsched.LatencyStat) sfsched.Duration { return s.P50 }
func p99(s sfsched.LatencyStat) sfsched.Duration { return s.P99 }

// runTrace is -trace 1: the layered replay at the named workload's
// population, then short live segments of flood (untraced and traced) and of
// wake's open loop for the figures only a concurrent run has, one repetition
// of hogs and the GMS pass of sim for the exact diagnostics, and the two
// layer budgets.
func runTrace(o options, res *result) error {
	tr := newTracer()
	root := tr.begin("trace."+o.workload, -1)
	sh := shapeFor(o)
	m := map[string]float64{}
	replayCore(tr, root, sh, o.seed, m)
	replayOthers(tr, root, sh, o.seed, m)
	replayEngine(tr, root, sh, o.seed, m)
	replayRT(tr, root, sh, o.seed, m)
	replayCluster(tr, root, sh, o.seed, m)
	replayMachine(tr, root, o, sh, m)
	engineCycle := m["engine.pick_ns"] + m["engine.begin_ns"] + m["engine.settle_ns"]
	m["engine.self_cycle_ns"] = engineCycle - m["core.pick_ns"] - m["core.charge_ns"]
	rtCycle := m["rt.submit_ring_ns"] + m["rt.dispatch_ns"] + m["rt.complete_ns"]
	m["rt.self_cycle_ns"] = rtCycle - engineCycle
	m["cluster.self_submit_ns"] = m["cluster.submit_ns"] - m["rt.submit_wake_ns"]
	m["machine.self_event_ns"] = m["machine.event_ns"] - engineCycle

	// Live flood, untraced then traced: the per-task cost the budget must
	// add up to, the tracing overhead, and the counters of a concurrent run.
	segment := o.duration() / 4
	var tasks []taskSpan
	var tps [2]float64
	for i, traced := range []bool{false, true} {
		id := tr.begin(fmt.Sprintf("live.flood.traced=%v", traced), root)
		fr, err := newFloodRun(o, traced)
		if err != nil {
			return err
		}
		rates, _ := fr.measure(segment)
		tps[i] = quiet(rates, "higher")
		if !traced {
			var ready []sfsched.LatencyStat
			for _, ss := range fr.r.ShardStats() {
				ready = append(ready, ss.Dispatch)
				m["rt.preemptions"] += float64(ss.Preemptions)
				m["rt.interims"] += float64(ss.Interims)
			}
			m["rt.ready_p50_us"], m["rt.ready_p99_us"] = weighted(ready, p50), weighted(ready, p99)
			m["rt.steals"], m["rt.migrations"] = float64(fr.r.Steals()), float64(fr.r.Migrations())
			m["rt.handoffs"] = float64(fr.r.Handoffs())
			m["flood.class_jain"] = fr.classJain()
		}
		fr.finish(res)
		if traced {
			for _, ft := range fr.tenants[:min(len(fr.tenants), 64)] {
				tasks = append(tasks, ft.spans[:min(int(ft.nspans), len(ft.spans))]...)
			}
		} else {
			lat := windowQuantiles(fr.latLogs(), len(rates), 0.90, 0.99)
			m["flood.lat_p90_us"], m["flood.lat_p99_us"] = quiet(lat[0], "lower")/1e3, quiet(lat[1], "lower")/1e3
		}
		tr.end(id)
	}
	live := float64(o.W) / tps[0] * 1e9
	m["flood.cost_per_task_ns"] = live
	m["trace.overhead_share"] = 1 - tps[1]/tps[0]
	m["residual.concurrency_ns"] = live - rtCycle

	// Live wake, open loop.
	id := tr.begin("live.wake.openloop", root)
	restore := generatorP(o)
	wr, err := newWakeRun(o)
	if err != nil {
		restore()
		return err
	}
	out := wr.generate(o.duration() * 3 / 10)
	var intake, wakedisp []sfsched.LatencyStat
	for _, r := range wr.runtimes() {
		for _, ss := range r.ShardStats() {
			intake, wakedisp = append(intake, ss.Intake), append(wakedisp, ss.Wake)
		}
	}
	wr.finish(res)
	restore()
	tr.end(id)
	m["rt.intake_p50_us"], m["rt.intake_p99_us"] = weighted(intake, p50), weighted(intake, p99)
	m["rt.wakedisp_p50_us"], m["rt.wakedisp_p99_us"] = weighted(wakedisp, p50), weighted(wakedisp, p99)
	m["gen.late_p50_us"] = float64(percentile(out.late, 0.50)) / 1e3
	m["gen.late_p99_us"] = float64(percentile(out.late, 0.99)) / 1e3
	m["wake.lat_p50_us"] = float64(percentile(out.lat, 0.50)) / 1e3
	m["wake.lat_p90_us"] = float64(percentile(out.lat, 0.90)) / 1e3
	m["wake.lat_p99_us"] = float64(percentile(out.lat, 0.99)) / 1e3
	m["wake.lat_p999_us"] = float64(percentile(out.lat, 0.999)) / 1e3
	m["wake.samples"] = float64(len(out.lat))
	wakeP50 := m["wake.lat_p50_us"] * 1e3
	m["residual.wake_ns"] = wakeP50 - m["cluster.self_submit_ns"] - 1e3*(m["rt.intake_p50_us"]+m["rt.wakedisp_p50_us"])

	// The exact diagnostics.
	id = tr.begin("exact.hogs", root)
	hogs := simulateHogs(o)
	for _, p := range hogs.problems {
		res.problem("%s", p)
	}
	m["hogs.lat_p90_us"] = float64(percentile(hogs.lat, 0.90))
	m["hogs.lat_p99_us"] = float64(percentile(hogs.lat, 0.99))
	m["hogs.share_err_max"], m["hogs.jain"] = hogs.shareErrMax, hogs.jain
	res.attempted += hogs.wakes
	tr.end(id)
	id = tr.begin("exact.sim.gms", root)
	m["sim.gms_lag_max_ms"] = simFidelityPass(o)
	tr.end(id)
	tr.end(root)

	for _, pm := range perLayer {
		v, ok := m[pm.Name]
		if !ok {
			return fmt.Errorf("trace: metric %s was not measured", pm.Name)
		}
		res.add(pm.Name, v, pm.Unit)
		delete(m, pm.Name)
	}
	if len(m) > 0 {
		return fmt.Errorf("trace: metrics %v are measured but not named", slices.Sorted(maps.Keys(m)))
	}
	res.samples["spans"] = int64(len(tr.spans))
	res.samples["lap_cost_ps"] = int64(tr.lapCost * 1e3)

	printBudget(o.stdout, fmt.Sprintf("layer budget, flood (live per-task cost = W ÷ tasks_per_s, W = %d; replay sized to %s)", o.W, o.workload),
		"flood.cost_per_task_ns", live, []budgetRow{
			{"core pick+charge", res.get("core.pick_ns") + res.get("core.charge_ns")},
			{"engine.self_cycle_ns", res.get("engine.self_cycle_ns")},
			{"rt.self_cycle_ns", res.get("rt.self_cycle_ns")},
			{"residual.concurrency_ns", res.get("residual.concurrency_ns")},
		})
	printBudget(o.stdout, "layer budget, wake open loop (against wake.lat_p50_us)",
		"wake.lat_p50_us", wakeP50, []budgetRow{
			{"cluster.self_submit_ns", res.get("cluster.self_submit_ns")},
			{"rt.intake_p50_us", 1e3 * res.get("rt.intake_p50_us")},
			{"rt.wakedisp_p50_us", 1e3 * res.get("rt.wakedisp_p50_us")},
			{"residual.wake_ns", res.get("residual.wake_ns")},
		})
	fmt.Fprintln(o.stdout)
	if o.out != "" {
		return tr.writeSpans(o.out, tasks, host(o))
	}
	return nil
}
