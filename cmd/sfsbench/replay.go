package main

import (
	"fmt"
	"runtime"

	"sfsched"
	"sfsched/internal/bvt"
	"sfsched/internal/core"
	"sfsched/internal/engine"
	"sfsched/internal/hier"
	"sfsched/internal/metrics"
	"sfsched/internal/readjust"
	"sfsched/internal/rt"
	"sfsched/internal/runqueue"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/xrand"
)

// The layered replay behind -trace 1. One seeded operation sequence — admit,
// pick, begin, charge, depart, and around them submit, dispatch, complete —
// is driven single-threaded at four depths: a cluster and a runtime in
// Manual mode on a FakeClock, a bare engine.Engine, and a bare policy. Every
// public call is timed from outside (trace.go), so a layer's self time is
// its figure minus the figure of the replay one layer down — the isolation
// TestShardedDecisionTraceVsReplica uses for correctness, used here for
// cost. The populations are sized to the workload named on the command line.

// shape is the population a replay is sized to.
type shape struct {
	n        int              // runnable threads of one scheduler instance
	cpus     int              // … and its processors
	ran      sfsched.Duration // service charged per slice
	quantum  sfsched.Duration
	heavy    bool // thread 0 is infeasibly heavy, so every readjustment caps it
	tenants  int  // tenants of one runtime
	workers  int
	shards   int
	depth    int // wake cycle: tenants kept woken and not yet dispatched
	machines int
	cycles   int // pick/charge cycles timed per battery
}

func shapeFor(o options) shape {
	floodLike := shape{n: floodTenants / o.W, cpus: 1, ran: 2 * sfsched.Microsecond, quantum: liveQuantum,
		tenants: floodTenants, workers: o.W, shards: o.W, depth: wakeChains / o.W, machines: o.W, cycles: 16384}
	sh := floodLike
	switch o.workload {
	case "wake":
		// One worker per machine in the live run; the replay keeps two shards
		// so that the steal and rebalance calls have a sibling to look at.
		sh.n, sh.ran, sh.tenants = wakeChains/o.W, sfsched.Microsecond, wakeTenants/o.W
		sh.workers, sh.shards = 2, 2
	case "hogs":
		sh.n, sh.cpus, sh.ran, sh.quantum, sh.heavy = (hogsCount+hogsInteractive)/hogsShards, hogsWorkers/hogsShards, sfsched.Millisecond, hogsQuantum, true
		sh.tenants, sh.workers, sh.shards, sh.depth = hogsCount+hogsInteractive, hogsWorkers, hogsShards, 4
	case "sim":
		// rt and cluster do nothing in sim; their replays keep flood's shape.
		sh.n, sh.cpus, sh.ran, sh.quantum, sh.heavy = simThreads, simCPUs, simQuantum, simQuantum, true
	}
	if o.short {
		sh.n, sh.tenants, sh.cycles = max(sh.n/8, 16), max(sh.tenants/8, 32), 1024
	}
	return sh
}

func replayWeights(seed uint64, n int, heavy bool) []float64 {
	rng := xrand.New(seed ^ 0x7265706c) // "repl"
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = float64(1 + rng.Intn(7))
		sum += w[i]
	}
	if heavy {
		w[0] = sum
	}
	return w
}

func mkThreads(weights []float64) []*sched.Thread {
	ts := make([]*sched.Thread, len(weights))
	for i, w := range weights {
		ts[i] = &sched.Thread{ID: i + 1, Name: fmt.Sprintf("r%d", i), Weight: w, Phi: w,
			CPU: sched.NoCPU, LastCPU: sched.NoCPU}
	}
	return ts
}

// roundsFor repeats a whole-population batch until about 2048 calls are in.
func roundsFor(n int) int { return min(max(2048/n, 2), 64) }

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("sfsbench: replay: %v", err)) // a bookkeeping bug in the replay itself
	}
}

const batchCalls = 256

// replayPolicyCycle times pick+charge cycles of any policy with its whole
// population runnable; pick and charge may be nil to time the cycle as one.
func replayPolicyCycle(tr *tracer, s sched.Scheduler, threads []*sched.Thread, sh shape, cycles int, pick, charge *op) {
	var now sfsched.Time
	for _, t := range threads {
		must(s.Add(t, now))
	}
	if pick == nil {
		pick = charge
	}
	running := make([]*sched.Thread, sh.cpus)
	l := tr.lapper()
	for i := 0; i < cycles; i++ {
		cpu := i % sh.cpus
		if t := running[cpu]; t != nil {
			now = now.Add(sh.ran / sfsched.Duration(sh.cpus))
			t.CPU, t.LastCPU = sched.NoCPU, cpu
			l.skip()
			s.Charge(t, sh.ran, now)
			l.lap(charge)
		}
		l.skip()
		t := s.Pick(cpu, now)
		l.lap(pick)
		t.CPU, running[cpu] = cpu, t
		if (i+1)%batchCalls == 0 {
			pick.flush()
			charge.flush()
		}
	}
}

func replayCore(tr *tracer, root int, sh shape, seed uint64, out map[string]float64) {
	parent := tr.begin("replay.core", root)
	defer tr.end(parent)
	s := core.New(sh.cpus, core.WithQuantum(sh.quantum))
	threads := mkThreads(replayWeights(seed, sh.n, sh.heavy))
	add, remove, addb := tr.op("core.add", parent), tr.op("core.remove", parent), tr.op("core.addbatch", parent)
	var now sfsched.Time
	for r := 0; r < roundsFor(sh.n); r++ {
		add.batch(len(threads), func() {
			for _, t := range threads {
				must(s.Add(t, now))
			}
		})
		remove.batch(len(threads), func() {
			for _, t := range threads {
				must(s.Remove(t, now))
			}
		})
		addb.batch(len(threads), func() {
			for lo := 0; lo < len(threads); lo += batchCalls {
				must(s.AddBatch(threads[lo:min(lo+batchCalls, len(threads))], now))
			}
		})
		for _, t := range threads {
			must(s.Remove(t, now))
		}
	}
	pick, charge := tr.op("core.pick", parent), tr.op("core.charge", parent)
	replayPolicyCycle(tr, s, threads, sh, sh.cycles, pick, charge)
	out["core.add_ns"] = add.value()
	out["core.remove_ns"] = remove.value()
	out["core.addbatch_ns_per_thread"] = addb.value()
	out["core.pick_ns"] = pick.value()
	out["core.charge_ns"] = charge.value()
}

// replayOthers times the diagnostics that no workload exercises today (all
// four run SFS): the other policies' cycles, the two ordered queues, the
// readjustment pass and the histogram.
func replayOthers(tr *tracer, root int, sh shape, seed uint64, out map[string]float64) {
	parent := tr.begin("replay.others", root)
	defer tr.end(parent)
	weights := replayWeights(seed, sh.n, sh.heavy)
	cycles := sh.cycles / 4 // the list-based policies insert linearly; keep the 10 k-thread case short
	h := hier.New(sh.cpus, sh.quantum)
	classes := []*hier.Class{h.MustAddClass("a", 3), h.MustAddClass("b", 2), h.MustAddClass("c", 1)}
	hierThreads := mkThreads(weights)
	for i, t := range hierThreads {
		h.Assign(t, classes[i%len(classes)])
	}
	for _, p := range []struct {
		name    string
		s       sched.Scheduler
		threads []*sched.Thread
	}{
		{"policy.sfq.cycle", sfq.New(sh.cpus, sfq.WithQuantum(sh.quantum)), mkThreads(weights)},
		{"policy.bvt.cycle", bvt.New(sh.cpus, bvt.WithQuantum(sh.quantum)), mkThreads(weights)},
		{"policy.hier.cycle", h, hierThreads},
	} {
		cyc := tr.op(p.name, parent)
		replayPolicyCycle(tr, p.s, p.threads, sh, cycles, nil, cyc)
		out[p.name+"_ns"] = 2 * cyc.value() // the op saw a pick and a charge per cycle
	}

	rng := xrand.New(seed)
	keyed := mkThreads(weights)
	for _, t := range keyed {
		t.Start = rng.Float64()
	}
	less := func(a, b *sched.Thread) bool { return a.Start < b.Start }
	hp, ls := tr.op("runqueue.heap.insert", parent), tr.op("runqueue.list.insert", parent)
	heapQ := runqueue.NewHeap(runqueue.SlotPrimary, less)
	listQ := runqueue.NewList(runqueue.SlotPrimary, less)
	for r := 0; r < roundsFor(sh.n)/2+1; r++ {
		hp.batch(len(keyed), func() {
			for _, t := range keyed {
				heapQ.Push(t)
			}
		})
		for _, t := range keyed {
			heapQ.Remove(t)
		}
		ls.batch(len(keyed), func() {
			for _, t := range keyed {
				listQ.Insert(t)
			}
		})
		for _, t := range keyed {
			listQ.Remove(t)
		}
	}
	out["runqueue.heap.insert_ns"] = hp.value()
	out["runqueue.list.insert_ns"] = ls.value()

	pass := tr.op("readjust.pass", parent)
	p := max(sh.cpus, 2) // one processor needs no readjustment
	for r := 0; r < 16; r++ {
		pass.batch(1, func() { readjust.Weights(weights, p) })
	}
	out["readjust.pass_ns"] = pass.value()

	rec := tr.op("metrics.hist_record", parent)
	var hist metrics.Histogram
	for r := 0; r < 16; r++ {
		rec.batch(batchCalls, func() {
			for i := 0; i < batchCalls; i++ {
				hist.Record(sfsched.Duration(i * 37))
			}
		})
	}
	out["metrics.hist_record_ns"] = rec.value()
}

func replayEngine(tr *tracer, root int, sh shape, seed uint64, out map[string]float64) {
	parent := tr.begin("replay.engine", root)
	defer tr.end(parent)
	eng := engine.New(core.New(sh.cpus, core.WithQuantum(sh.quantum)))
	threads := mkThreads(replayWeights(seed, sh.n, sh.heavy))
	admit, depart, admitb := tr.op("engine.admit", parent), tr.op("engine.depart", parent), tr.op("engine.admitbatch", parent)
	var now sfsched.Time
	for r := 0; r < roundsFor(sh.n); r++ {
		admit.batch(len(threads), func() {
			for _, t := range threads {
				must(eng.Admit(t, now))
			}
		})
		depart.batch(len(threads), func() {
			for _, t := range threads {
				must(eng.Depart(t, sched.Blocked, now))
			}
		})
		admitb.batch(len(threads), func() {
			for lo := 0; lo < len(threads); lo += batchCalls {
				must(eng.AdmitBatch(threads[lo:min(lo+batchCalls, len(threads))], now))
			}
		})
		for _, t := range threads {
			must(eng.Depart(t, sched.Blocked, now))
		}
	}
	for _, t := range threads {
		must(eng.Admit(t, now))
	}
	pick, begin, settle := tr.op("engine.pick", parent), tr.op("engine.begin", parent), tr.op("engine.settle", parent)
	slices := make([]engine.Slice, sh.cpus)
	l := tr.lapper()
	for i := 0; i < sh.cycles; i++ {
		cpu := i % sh.cpus
		sl := &slices[cpu]
		if t := sl.Thread; t != nil {
			now = now.Add(sh.ran / sfsched.Duration(sh.cpus))
			t.CPU, t.LastCPU = sched.NoCPU, cpu
			l.skip()
			eng.Settle(sl, now, engine.NoCap)
			l.lap(settle)
		}
		l.skip()
		t, err := eng.Pick(cpu, now)
		l.lap(pick)
		must(err)
		l.skip()
		must(eng.Begin(sl, t, cpu, now, now))
		l.lap(begin)
		if (i+1)%batchCalls == 0 {
			pick.flush()
			begin.flush()
			settle.flush()
		}
	}
	// The calls the enforcement, preemption and migration paths add.
	interim, rank, lead := tr.op("engine.interim", parent), tr.op("engine.rank", parent), tr.op("engine.transferlead", parent)
	sl := &slices[0]
	for r := 0; r < 16; r++ {
		interim.batch(batchCalls, func() {
			for i := 0; i < batchCalls; i++ {
				now = now.Add(sfsched.Microsecond)
				eng.InterimInstallment(sl, now)
			}
		})
		var sink float64
		rank.batch(batchCalls, func() {
			for i := 0; i < batchCalls; i++ {
				sink += eng.RankRunning(sl, now)
			}
		})
		_ = sink
	}
	dst := engine.New(core.New(sh.cpus, core.WithQuantum(sh.quantum)))
	mover := mkThreads([]float64{3})[0]
	mover.Finish = 1
	for r := 0; r < 16; r++ {
		lead.batch(batchCalls, func() {
			for i := 0; i < batchCalls; i++ {
				engine.TransferLead(eng, dst, mover)
			}
		})
	}
	out["engine.admit_ns"] = admit.value()
	out["engine.depart_ns"] = depart.value()
	out["engine.admitbatch_ns_per_thread"] = admitb.value()
	out["engine.pick_ns"] = pick.value()
	out["engine.begin_ns"] = begin.value()
	out["engine.settle_ns"] = settle.value()
	out["engine.interim_ns"] = interim.value()
	out["engine.rank_ns"] = rank.value()
	out["engine.transferlead_ns"] = lead.value()
}

// replayRuntime is a Manual runtime on a FakeClock with the shape's tenants
// registered and, when backlog > 0, that many no-op tasks queued on each.
type replayRuntime struct {
	r       *sfsched.Runtime
	clock   *sfsched.FakeClock
	tenants []*sfsched.Tenant
	sh      shape
}

var noopTask = sfsched.RunOnce(func() {})

func newReplayRuntime(sh shape, seed uint64, backlog int, preempt, enforce, steal bool) *replayRuntime {
	rr := &replayRuntime{clock: sfsched.NewFakeClock(), sh: sh}
	rr.r = sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers: sh.workers, Quantum: sh.quantum, Clock: rr.clock, Manual: true, Preempt: preempt,
		Sharding:    sfsched.ShardingConfig{Shards: sh.shards, Steal: steal},
		Enforcement: sfsched.EnforcementConfig{Enabled: enforce},
		Intake:      sfsched.IntakeConfig{QueueCap: 4},
	})
	for i, w := range replayWeights(seed, sh.tenants, false) {
		tn, err := rr.r.Register(fmt.Sprintf("r%d", i), w)
		must(err)
		for b := 0; b < backlog; b++ {
			must(tn.SubmitTask(noopTask, sfsched.NoWait()))
		}
		rr.tenants = append(rr.tenants, tn)
	}
	return rr
}

// ringCycle is flood's per-task path: dispatch a backlogged tenant, submit
// to it from inside the slice (it is backlogged, so the submit is one ring
// push and no wake-up), complete the slice.
func (rr *replayRuntime) ringCycle(tr *tracer, cycles int, dispatch, submit, complete *op) {
	step := rr.sh.ran
	l := tr.lapper()
	for i := 0; i < cycles; i++ {
		l.skip()
		d := rr.r.Dispatch(i % rr.sh.workers)
		l.lap(dispatch)
		tn := d.Tenant()
		l.skip()
		err := tn.SubmitTask(noopTask, sfsched.NoWait())
		l.lap(submit)
		must(err)
		rr.clock.Advance(step)
		l.skip()
		d.Complete(true)
		l.lap(complete)
		if (i+1)%batchCalls == 0 {
			dispatch.flush()
			submit.flush()
			complete.flush()
		}
	}
}

func (rr *replayRuntime) ringCycleCost(tr *tracer, parent, cycles int, name string) float64 {
	d, s, c := tr.op(name+".dispatch", parent), tr.op(name+".submit_ring", parent), tr.op(name+".complete", parent)
	rr.ringCycle(tr, cycles, d, s, c)
	return d.value() + s.value() + c.value()
}

func replayRT(tr *tracer, root int, sh shape, seed uint64, out map[string]float64) {
	parent := tr.begin("replay.rt", root)
	defer tr.end(parent)

	// (a) every tenant backlogged: the flood path and the armed machinery.
	rr := newReplayRuntime(sh, seed, 2, true, true, true)
	dispatch, submitRing, complete := tr.op("rt.dispatch", parent), tr.op("rt.submit_ring", parent), tr.op("rt.complete", parent)
	rr.ringCycle(tr, sh.cycles, dispatch, submitRing, complete)
	out["rt.dispatch_ns"] = dispatch.value()
	out["rt.submit_ring_ns"] = submitRing.value()
	out["rt.complete_ns"] = complete.value()
	armed := out["rt.dispatch_ns"] + out["rt.submit_ring_ns"] + out["rt.complete_ns"]

	// Allocations per task, over a stretch with no tracer bookkeeping.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const allocCycles = 4096
	for i := 0; i < allocCycles; i++ {
		d := rr.r.Dispatch(i % sh.workers)
		must(d.Tenant().SubmitTask(noopTask, sfsched.NoWait()))
		rr.clock.Advance(sh.ran)
		d.Complete(true)
	}
	runtime.ReadMemStats(&after)
	out["rt.allocs_per_task"] = float64(after.Mallocs-before.Mallocs) / allocCycles

	enforce := tr.op("rt.enforce_pass", parent)
	inflight := make([]*sfsched.Dispatched, 0, sh.workers)
	for w := 0; w < sh.workers; w++ {
		if d := rr.r.Dispatch(w); d != nil {
			inflight = append(inflight, d)
		}
	}
	for r := 0; r < 8; r++ {
		enforce.batch(16, func() {
			for i := 0; i < 16; i++ {
				rr.clock.Advance(sfsched.Microsecond) // an interim charge to apply, far inside every slice
				rr.r.Enforce()
			}
		})
	}
	for _, d := range inflight {
		d.Complete(false)
	}
	out["rt.enforce_pass_us"] = enforce.value() / 1e3

	// Every sibling is backlogged, so each call steals; were one to miss, the
	// figure would come out low rather than the run fail.
	hit := tr.op("rt.trysteal_hit", parent)
	for r := 0; r < 8; r++ {
		hit.batch(16, func() {
			for i := 0; i < 16; i++ {
				rr.r.TrySteal(i % sh.workers)
			}
		})
	}
	out["rt.trysteal_hit_ns"] = hit.value()

	rebalance, stats := tr.op("rt.rebalance_pass", parent), tr.op("rt.stats_call", parent)
	for r := 0; r < 8; r++ {
		rebalance.batch(1, func() { rr.r.Rebalance() })
		stats.batch(1, func() {
			_ = rr.r.Stats()
			_ = rr.r.ShardStats()
		})
	}
	out["rt.rebalance_pass_us"] = rebalance.value() / 1e3
	out["rt.stats_call_us"] = stats.value() / 1e3

	register, setweight, unregister := tr.op("rt.register", parent), tr.op("rt.setweight", parent), tr.op("rt.unregister", parent)
	extra := make([]*sfsched.Tenant, 128)
	for r := 0; r < 4; r++ {
		register.batch(len(extra), func() {
			for i := range extra {
				tn, err := rr.r.Register("x", float64(1+i%7))
				must(err)
				extra[i] = tn
			}
		})
		setweight.batch(len(extra), func() {
			for i, tn := range extra {
				must(rr.r.SetWeight(tn, float64(1+(i+3)%7)))
			}
		})
		unregister.batch(len(extra), func() {
			for _, tn := range extra {
				must(rr.r.Unregister(tn))
			}
		})
	}
	out["rt.register_us"] = register.value() / 1e3
	out["rt.setweight_us"] = setweight.value() / 1e3
	out["rt.unregister_us"] = unregister.value() / 1e3
	rr.r.Close()

	// What arming each feature costs the flood path: the same cycle on a
	// runtime with that one feature disarmed.
	for _, v := range []struct {
		name                    string
		preempt, enforce, steal bool
	}{
		{"rt.preempt_armed_delta_ns", false, true, true},
		{"rt.enforce_armed_delta_ns", true, false, true},
		{"rt.steal_armed_delta_ns", true, true, false},
	} {
		off := newReplayRuntime(sh, seed, 2, v.preempt, v.enforce, v.steal)
		out[v.name] = armed - off.ringCycleCost(tr, parent, sh.cycles/4, v.name)
		off.r.Close()
	}

	// (b) every tenant idle: the wake path. depth tenants are kept woken and
	// not yet dispatched, the runnable set the live wake run carries.
	idle := newReplayRuntime(sh, seed, 0, true, true, true)
	miss := tr.op("rt.trysteal_miss", parent)
	for r := 0; r < 16; r++ {
		miss.batch(batchCalls, func() {
			for i := 0; i < batchCalls; i++ {
				idle.r.TrySteal(i % sh.workers) // every tenant is idle: nothing to steal
			}
		})
	}
	out["rt.trysteal_miss_ns"] = miss.value()
	submitWake, completeBlock, dispatchWake := tr.op("rt.submit_wake", parent), tr.op("rt.complete_block", parent), tr.op("rt.dispatch_woken", parent)
	idle.wakeCycle(tr, sh.cycles, submitWake, dispatchWake, completeBlock)
	out["rt.submit_wake_ns"], out["rt.complete_block_ns"] = submitWake.value(), completeBlock.value()
	idle.r.Close()
}

// wakeCycle is wake's per-task path: submit to an idle tenant (a wake-up),
// dispatch one woken tenant, complete its only task (the tenant blocks).
func (rr *replayRuntime) wakeCycle(tr *tracer, cycles int, submitOp, dispatchOp, completeOp *op) {
	n := len(rr.tenants)
	for i := 0; i < rr.sh.depth; i++ {
		must(rr.tenants[i].SubmitTask(noopTask, sfsched.NoWait()))
	}
	l := tr.lapper()
	for i := 0; i < cycles; i++ {
		tn := rr.tenants[(i+rr.sh.depth)%n]
		l.skip()
		err := tn.SubmitTask(noopTask, sfsched.NoWait())
		l.lap(submitOp)
		must(err)
		var d *sfsched.Dispatched
		l.skip()
		for w := 0; d == nil; w++ {
			d = rr.r.Dispatch((i + w) % rr.sh.workers)
		}
		l.lap(dispatchOp)
		rr.clock.Advance(rr.sh.ran)
		l.skip()
		d.Complete(true)
		l.lap(completeOp)
		if (i+1)%batchCalls == 0 {
			submitOp.flush()
			dispatchOp.flush()
			completeOp.flush()
		}
	}
}

func replayCluster(tr *tracer, root int, sh shape, seed uint64, out map[string]float64) {
	parent := tr.begin("replay.cluster", root)
	defer tr.end(parent)
	clock := sfsched.NewFakeClock()
	c, err := sfsched.NewCluster(sfsched.ClusterConfig{
		Machines: sh.machines, K: wakeK, Workers: 1, Quantum: sh.quantum, Clock: clock,
		QueueCap: wakeQueueCap, Manual: true, Preempt: true, Enforce: true, Seed: seed,
	})
	must(err)
	defer c.Close()
	weights := replayWeights(seed, sh.tenants, false)
	tenants := make([]*sfsched.ClusterTenant, len(weights))
	register := tr.op("cluster.register", parent)
	for lo := 0; lo < len(weights); lo += batchCalls {
		hi := min(lo+batchCalls, len(weights))
		register.batch(hi-lo, func() {
			for i := lo; i < hi; i++ {
				tenants[i], err = c.Register(fmt.Sprintf("c%d", i), weights[i])
				must(err)
			}
		})
	}
	out["cluster.register_us"] = register.value() / 1e3

	submit := tr.op("cluster.submit", parent)
	l := tr.lapper()
	for i := 0; i < sh.cycles; i++ {
		ct := tenants[i%len(tenants)]
		l.skip()
		err := ct.SubmitTask(noopTask, sfsched.NoWait())
		l.lap(submit)
		must(err)
		d := c.Node(ct.Machine()).(*rt.Runtime).Dispatch(0)
		clock.Advance(sh.ran)
		d.Complete(true)
		if (i+1)%batchCalls == 0 {
			submit.flush()
		}
	}
	out["cluster.submit_ns"] = submit.value()

	pass, stats := tr.op("cluster.rebalance_pass", parent), tr.op("cluster.stats_call", parent)
	for r := 0; r < 8; r++ {
		pass.batch(1, func() { c.Rebalance() }) // k-choices placement left nothing to move
		stats.batch(1, func() { _ = c.Stats() })
	}
	out["cluster.rebalance_pass_us"] = pass.value() / 1e3
	out["cluster.stats_call_us"] = stats.value() / 1e3

	// Migration: tilt machine 0 by re-weighting some of its tenants, let one
	// pass move tenants off it, and price a move as that pass's time beyond
	// a balanced pass's, per tenant moved.
	var tilted []*sfsched.ClusterTenant
	for i, ct := range tenants {
		if ct.Machine() == 0 && len(tilted) < 32 {
			must(c.SetWeight(ct, 20*weights[i]))
			tilted = append(tilted, ct)
		}
	}
	start := nowNs()
	moved := c.Rebalance()
	took := float64(nowNs() - start)
	tr.spans = append(tr.spans, span{Name: "cluster.migrate", Start: start, End: start + int64(took),
		Parent: parent, Calls: int64(moved), Busy: int64(took)})
	out["cluster.migrate_us"] = 0
	if moved > 0 {
		out["cluster.migrate_us"] = max(took-pass.value(), 0) / float64(moved) / 1e3
	}
}

func replayMachine(tr *tracer, root int, o options, sh shape, out map[string]float64) {
	parent := tr.begin("replay.machine", root)
	defer tr.end(parent)
	sr := newSimRun(o, sh.n, 0)
	ev := tr.op("machine.event", parent)
	chunk := sfsched.Duration(batchCalls) * simQuantum / simCPUs
	for r := 0; r < sh.cycles/batchCalls/2; r++ {
		before := sr.m.Stats().Dispatches
		start := nowNs()
		sr.advance(chunk)
		ev.ns = nowNs() - start
		ev.started, ev.calls, ev.laps = start, sr.m.Stats().Dispatches-before, 1
		ev.flush()
	}
	out["machine.event_ns"] = ev.value()
}
