package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"sfsched"
	"sfsched/internal/rt"
	"sfsched/internal/xrand"
)

// wake is the wake-up workload, the mirror image of flood: through the full
// stack (sfsched.NewCluster, W machines × 1 worker, K = 2, Preempt + Enforce
// armed) every submit finds its tenant blocked and every completion blocks it
// again, so a task costs cluster routing + intake ring + doorbell + wake-up
// admission (the Figure-2 readjustment) + depart, on a runnable set that
// never exceeds wakeChains: pick is cheap.
//
// It runs in two forms over the same tenants and tasks.
//
// The end-to-end form is a closed loop without a generator: wakeChains
// chains, each a ring of wakeTenants/wakeChains tenants, and every task
// wakes the next tenant of its ring before it completes. No generator's
// timing is in the numbers, but the workers still run dry and park (they are
// about 55 % busy), so a busy host moves wake more than the other workloads.
//
// The open-loop form (generate; -trace 1 and the tests) is the one the
// ROADMAP asks for: one generator goroutine submits, every wakeTick, a burst
// of wakeBurst tasks to distinct idle tenants, each stamped with the tick's
// due time (the slasched worldNumProcsGenPerTick / timePlaced scheme), so a
// stall is charged to every arrival due during it. On a 2-vCPU virtual host
// its latencies are the hypervisor's idle-exit and steal times (the first
// task of a burst completes ~95 µs after it is due, all the others within
// the next 30 µs) and vary by 25–40 % between runs of one commit, so under
// the issue's stability rule they are per-layer metrics (wake.lat_*), not
// end-to-end ones.

type wakeSlot struct {
	task  sfsched.RuntimeTask
	seq   int64
	stamp int64 // ns: due time (open loop) or submit instant of a sampled task (chains); 0 = not timed
}

// wakeTenant's counters have one writer at a time: submitted and the slot
// stamps belong to whoever submits to the tenant (the generator, or the one
// chain the tenant is part of); the rest belong to the tenant's own serial
// tasks. The main goroutine reads them after Drain.
type wakeTenant struct {
	run       *wakeRun
	tn        *sfsched.ClusterTenant
	idx       int
	next      *wakeTenant                // chain successor
	slots     [2 * wakeQueueCap]wakeSlot // twice the backlog bound: a refused submit must not restamp a pending task's slot
	submitted int64
	nextRun   int64
	disorder  int64
	lat       latLog
	done      atomic.Int64
}

type wakeRun struct {
	o          options
	c          *sfsched.Cluster
	tenants    []*wakeTenant
	chains     atomic.Bool  // closed-loop form: tasks wake their successor
	timed      timedRegion  // latency samples outside it are dropped
	stallUntil atomic.Int64 // -inject stall: tasks started before this instant wait for it
	failed     atomic.Int64 // refused submits
	setupNs    int64
}

// wakeInputs is the seeded input of wake: tenant weights in 1..7, the order
// in which the chains thread the tenants, and the open loop's submit
// schedule — ticks bursts of burst distinct tenant indices each. A pure
// function of the seed.
func wakeInputs(seed uint64, tenants, burst, ticks int) (weights []float64, order []int, schedule []uint16) {
	rng := xrand.New(seed ^ 0x77616b65) // "wake": decorrelate from the other workloads' streams
	weights = make([]float64, tenants)
	for i := range weights {
		weights[i] = float64(1 + rng.Intn(7))
	}
	order = rng.Perm(tenants)
	schedule = make([]uint16, 0, ticks*burst)
	var perm []int
	for t := 0; t < ticks; t++ {
		if len(perm) < burst {
			perm = rng.Perm(tenants) // a fresh permutation keeps each burst's tenants distinct
		}
		for _, i := range perm[:burst] {
			schedule = append(schedule, uint16(i))
		}
		perm = perm[burst:]
	}
	return weights, order, schedule
}

func (wt *wakeTenant) submit(stamp int64) {
	n := wt.submitted
	wt.submitted = n + 1
	s := &wt.slots[n%int64(len(wt.slots))]
	s.seq, s.stamp = n, stamp
	if wt.run.o.inject == "reorder" && wt.idx == 0 && n>>1 == 1 {
		s.seq = n ^ 1 // tasks 2 and 3 swap identities
	}
	if err := wt.tn.SubmitTask(s.task, sfsched.NoWait()); err != nil {
		wt.run.failed.Add(1)
		wt.submitted = n // the refused task never runs; its number is reused
	}
}

func (wt *wakeTenant) taskFor(slot int) sfsched.RuntimeTask {
	return func(sfsched.Duration) bool {
		wr := wt.run
		s := &wt.slots[slot]
		if until := wr.stallUntil.Load(); until != 0 {
			for nowNs() < until {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if s.seq != wt.nextRun {
			wt.disorder++
		}
		wt.nextRun = s.seq + 1
		if s.stamp != 0 {
			now := nowNs()
			if w, ok := wr.timed.window(s.stamp, now); ok {
				wt.lat.record(w, now-s.stamp)
			}
		}
		if wr.chains.Load() {
			var stamp int64
			if next := wt.next; (next.submitted+int64(next.idx))%wakeLatEvery == 0 { // offset by tenant: a ring's tenants advance in step
				stamp = nowNs()
			}
			wt.next.submit(stamp)
		}
		if wr.o.inject == "drop" && wt.idx == 0 && s.seq == 2 {
			return true // a completion the harness never hears of
		}
		wt.done.Add(1)
		return true
	}
}

func wakeSizes(o options) (tenants, chains, burst int) {
	if o.short {
		return wakeTenants / 8, wakeChains / 4, wakeBurst / 8
	}
	return wakeTenants, wakeChains, wakeBurst
}

// newWakeRun is wake's set-up: build the cluster, register the tenants,
// thread the chains, and warm every path with wakeWarmBursts closed-loop
// bursts (submit, then Drain), which is measured work and not a fixed wait.
func newWakeRun(o options) (*wakeRun, error) {
	begin := nowNs()
	wr := &wakeRun{o: o}
	wr.timed.close()
	c, err := sfsched.NewCluster(sfsched.ClusterConfig{
		Machines: o.W,
		K:        wakeK,
		Workers:  1,
		Quantum:  liveQuantum,
		QueueCap: wakeQueueCap,
		Preempt:  true,
		Enforce:  true,
		Seed:     o.seed,
	})
	if err != nil {
		return nil, err
	}
	wr.c = c
	tenants, chains, burst := wakeSizes(o)
	weights, order, warm := wakeInputs(o.seed, tenants, burst, wakeWarmBursts)
	for i, w := range weights {
		tn, err := c.Register(fmt.Sprintf("wake-%d", i), w)
		if err != nil {
			c.Close()
			return nil, err
		}
		wt := &wakeTenant{run: wr, tn: tn, idx: i}
		for s := range wt.slots {
			wt.slots[s].task = wt.taskFor(s)
		}
		wr.tenants = append(wr.tenants, wt)
	}
	// Thread the rings in the seeded order, whatever machine a tenant landed
	// on: about half the wake-ups cross machines. (Rings confined to one
	// machine were tried for steadiness: a task then costs 1.3 µs, under the
	// runtime's 1 µs charge resolution, tags stop advancing and one ring per
	// worker monopolises it.)
	for k, i := range order {
		wr.tenants[i].next = wr.tenants[order[(k+chains)%tenants]]
	}
	for t := 0; t < wakeWarmBursts; t++ {
		for _, i := range warm[t*burst : (t+1)*burst] {
			wr.tenants[i].submit(0)
		}
		c.Drain()
	}
	wr.setupNs = nowNs() - begin
	return wr, nil
}

func (wr *wakeRun) completed() int64 {
	var n int64
	for _, wt := range wr.tenants {
		n += wt.done.Load()
	}
	return n
}

// runChains starts the closed loop, times it for d, and stops it. It returns
// completed tasks per second in each window, the tasks completed in all, and
// the submit→completion latencies of the sampled tasks.
func (wr *wakeRun) runChains(d time.Duration) (rates []float64, tasks int64, logs []*latLog) {
	tenants, chains, _ := wakeSizes(wr.o)
	_, order, _ := wakeInputs(wr.o.seed, tenants, 0, 0)
	for _, wt := range wr.tenants {
		// Room for the whole run: a log that grows while timed makes the
		// collector run at moments that differ from run to run, and the
		// peak memory reading with them.
		wt.lat = latLog{ns: make([]int64, 0, wakeLatCap)}
	}
	wr.chains.Store(true)
	for _, i := range order[:chains] {
		wr.tenants[i].submit(0) // the head of each ring; one submitter per tenant from here on
	}
	time.Sleep(d / rateWindows) // the chains spread over the machines before timing starts
	rates, tasks = windowRate(d, wr.completed, &wr.timed)
	wr.chains.Store(false)
	wr.c.Drain()
	for _, wt := range wr.tenants {
		logs = append(logs, &wt.lat)
	}
	return rates, tasks, logs
}

// wakeOutcome is what one timed open-loop segment produced.
type wakeOutcome struct {
	lat       []int64 // due→completion latencies, ns, sorted
	late      []int64 // per-tick generator lateness (burst start − due), ns, sorted
	elapsedNs int64   // first due time → Drain returned
	submitted int64
}

// generate runs the open loop for d: sleep until wakeSpin before each due
// time, spin the rest, submit the tick's burst stamped with the due time.
// With -inject stall a wakeStall-long stall of every worker is planted every
// tenth of the run.
func (wr *wakeRun) generate(d time.Duration) wakeOutcome {
	tenants, _, burst := wakeSizes(wr.o)
	ticks := int(d / wakeTick)
	_, _, schedule := wakeInputs(wr.o.seed+1, tenants, burst, ticks)
	for _, wt := range wr.tenants {
		wt.lat = latLog{ns: make([]int64, 0, 2*ticks*burst/tenants+16)}
	}
	late := make([]int64, 0, ticks)
	t0 := nowNs() + int64(wakeTick)
	wr.timed.open(t0)
	for k := 0; k < ticks; k++ {
		due := t0 + int64(k)*int64(wakeTick)
		if wait := due - int64(wakeSpin) - nowNs(); wait > 0 {
			sleepFor(time.Duration(wait))
		}
		for nowNs() < due {
		}
		late = append(late, nowNs()-due)
		if wr.o.inject == "stall" && k%max(ticks/10, 1) == 0 {
			wr.stallUntil.Store(due + int64(wakeStall))
		}
		for _, i := range schedule[k*burst : (k+1)*burst] {
			wr.tenants[i].submit(due)
		}
	}
	wr.c.Drain()
	out := wakeOutcome{late: late, elapsedNs: nowNs() - t0, submitted: int64(ticks * burst)}
	for _, wt := range wr.tenants {
		out.lat = append(out.lat, wt.lat.ns...)
	}
	slices.Sort(out.lat)
	slices.Sort(out.late)
	return out
}

// finish runs wake's correctness checks and closes the cluster.
func (wr *wakeRun) finish(res *result) {
	wr.chains.Store(false)
	wr.c.Drain()
	var submitted, done, disorder int64
	for _, wt := range wr.tenants {
		submitted += wt.submitted
		done += wt.done.Load()
		disorder += wt.disorder
	}
	failed := wr.failed.Load()
	res.attempted += submitted + failed
	res.failed += failed
	if submitted != done {
		res.failed += submitted - done
		res.problem("wake: %d accepted but %d completed", submitted, done)
	}
	if disorder != 0 {
		res.problem("wake: %d tasks completed out of their tenant's FIFO order", disorder)
	}
	if err := wr.c.CheckInvariants(); err != nil {
		res.problem("wake: %v", err)
	}
	wr.c.Close()
}

func (wr *wakeRun) abandon() {
	wr.c.Drain()
	wr.c.Close()
}

// runtimes returns the cluster's machines as runtimes, for their public
// per-shard statistics.
func (wr *wakeRun) runtimes() []*rt.Runtime {
	var out []*rt.Runtime
	for i := 0; i < wr.c.Machines(); i++ {
		if r, ok := wr.c.Node(i).(*rt.Runtime); ok {
			out = append(out, r)
		}
	}
	return out
}

// generatorP gives the open-loop generator a P of its own, and returns the
// function that takes it back. With GOMAXPROCS = W and W workers mid-burst,
// Go's scheduler holds the generator's wake-up until a worker parks, and the
// next tick starts late; with W+1 the OS timeslices the (mostly sleeping)
// generator thread instead.
func generatorP(o options) (restore func()) {
	prev := runtime.GOMAXPROCS(o.W + 1)
	return func() { runtime.GOMAXPROCS(prev) }
}

func buildWake(o options) (*wakeRun, float64, error) {
	return repeatSetup(func() (*wakeRun, int64, error) {
		wr, err := newWakeRun(o)
		if err != nil {
			return nil, 0, err
		}
		return wr, wr.setupNs, nil
	}, (*wakeRun).abandon)
}

// runWake is the untraced end-to-end run: the closed-loop form.
func runWake(o options, res *result) error {
	wr, setup, err := buildWake(o)
	if err != nil {
		return err
	}
	rates, tasks, logs := wr.runChains(o.duration())
	wr.finish(res)
	res.add("setup_s", setup, "s")
	res.addLive("wake", rates, logs)
	res.samples["tasks"] = tasks
	return nil
}
