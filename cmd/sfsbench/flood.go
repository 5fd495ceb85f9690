package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"sfsched"
	"sfsched/internal/xrand"
)

// flood is the closed-loop saturation workload: floodTenants tenants each
// keep floodChains no-op tasks outstanding by resubmitting from inside the
// task (the examples/fairserver pattern), so there is no generator thread and
// the runnable set never shrinks. Each task costs one intake-ring push and
// one pick/begin/settle on a floodTenants/W-thread queue behind a shard lock.

type floodSlot struct {
	task  sfsched.RuntimeTask
	seq   int64 // sequence number stamped at submit
	stamp int64 // submit instant (ns) of a latency-sampled task, else 0
}

// floodTenant's plain fields are touched only by the tenant's own tasks,
// which the runtime runs serially (hand-over-hand under the shard lock), and
// by the main goroutine before the first submit and after Drain.
type floodTenant struct {
	run       *floodRun
	tn        *sfsched.Tenant
	idx       int
	slots     [floodQueueCap]floodSlot
	submitted int64
	nextRun   int64
	failed    int64
	disorder  int64
	lat       latLog     // submit→completion, ns, sampled tasks
	spans     []taskSpan // traced runs only: a ring of the most recent tasks
	nspans    int64
	completed atomic.Int64
	// primes is the next tenant of the same shard, primed by this tenant's
	// first task. A submit from outside the pool must ring the shard's
	// doorbell under the shard lock, and against a saturated worker that
	// wait is about a millisecond (sync.Mutex hands over only in starvation
	// mode) — 4096 of them would make set-up seconds long. A submit from the
	// shard's own worker finds the lock free.
	primes *floodTenant
}

// taskSpan is the per-task record a traced live run keeps.
type taskSpan struct {
	Tenant, Seq int64
	Start, End  int64
}

type floodRun struct {
	o       options
	r       *sfsched.Runtime
	tenants []*floodTenant
	stop    atomic.Bool
	traced  bool
	timed   timedRegion // latency samples outside it are dropped
	setupNs int64
}

func (ft *floodTenant) submit() {
	n := ft.submitted
	ft.submitted = n + 1
	s := &ft.slots[n%floodQueueCap]
	s.seq = n
	if ft.run.o.inject == "reorder" && ft.idx == 0 && n>>1 == 5 {
		s.seq = n ^ 1 // tasks 10 and 11 swap identities: the checker must see 11 first
	}
	s.stamp = 0
	if (n+int64(ft.idx))%floodLatEvery == 0 { // offset by tenant: tenants advance in step, and would all be sampled at once
		s.stamp = nowNs()
	}
	if err := ft.tn.SubmitTask(s.task, sfsched.NoWait()); err != nil {
		ft.failed++
	}
}

func (ft *floodTenant) taskFor(slot int) sfsched.RuntimeTask {
	return func(sfsched.Duration) bool {
		var start int64
		if ft.run.traced {
			start = nowNs()
		}
		s := &ft.slots[slot]
		if s.seq != ft.nextRun {
			ft.disorder++
		}
		ft.nextRun = s.seq + 1
		if s.stamp != 0 {
			now := nowNs()
			if w, ok := ft.run.timed.window(s.stamp, now); ok {
				ft.lat.record(w, now-s.stamp)
			}
		}
		seq := s.seq
		if !ft.run.stop.Load() {
			// The tenant's first task fans out to floodChains chains, so
			// that after the main goroutine's one priming submit only the
			// tenant's own serial tasks ever touch its counters.
			for k := ft.submitted; k <= seq+floodChains; k++ {
				ft.submit()
			}
			if seq == 0 && ft.primes != nil {
				ft.primes.submit()
			}
		}
		if ft.run.traced {
			ft.spans[ft.nspans%int64(len(ft.spans))] = taskSpan{int64(ft.idx), seq, start, nowNs()}
			ft.nspans++
		}
		if ft.run.o.inject == "drop" && ft.idx == 0 && seq == 10 {
			return true // a completion the harness never hears of
		}
		ft.completed.Add(1)
		return true
	}
}

func (fr *floodRun) completed() int64 {
	var n int64
	for _, ft := range fr.tenants {
		n += ft.completed.Load()
	}
	return n
}

// floodWeights is the seeded input of flood: one weight in 1..7 per tenant.
func floodWeights(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(1 + rng.Intn(7))
	}
	return w
}

// newFloodRun is flood's set-up: build the runtime, register and pre-fill
// the tenants, and run until floodWarmTasks tasks have completed.
func newFloodRun(o options, traced bool) (*floodRun, error) {
	begin := nowNs()
	fr := &floodRun{o: o, traced: traced}
	fr.timed.close()
	fr.r = sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers:  o.W,
		Quantum:  liveQuantum,
		Preempt:  true,
		Sharding: sfsched.ShardingConfig{Shards: o.W, Steal: true},
		Enforcement: sfsched.EnforcementConfig{
			Enabled: true,
		},
		Intake: sfsched.IntakeConfig{QueueCap: floodQueueCap},
	})
	n := floodTenants
	warm := int64(floodWarmTasks)
	if o.short {
		n, warm = floodTenants/8, floodWarmTasks/32
	}
	for i, w := range floodWeights(o.seed, n) {
		tn, err := fr.r.Register(fmt.Sprintf("flood-%d", i), w)
		if err != nil {
			fr.r.Close()
			return nil, err
		}
		ft := &floodTenant{run: fr, tn: tn, idx: i}
		if traced {
			ft.spans = make([]taskSpan, 64)
		}
		for s := range ft.slots {
			ft.slots[s].task = ft.taskFor(s)
		}
		fr.tenants = append(fr.tenants, ft)
	}
	heads := make([]*floodTenant, o.W)
	for i := len(fr.tenants) - 1; i >= 0; i-- {
		ft := fr.tenants[i]
		sh := ft.tn.Shard()
		ft.primes, heads[sh] = heads[sh], ft
	}
	for _, ft := range heads {
		if ft != nil {
			ft.submit()
		}
	}
	for fr.completed() < warm {
		time.Sleep(2 * time.Millisecond)
	}
	fr.setupNs = nowNs() - begin
	return fr, nil
}

// measure times the flood for d: completed tasks per second in each window,
// and how many tasks in all.
func (fr *floodRun) measure(d time.Duration) (rates []float64, tasks int64) {
	// Set-up leaves the tenants in step, and the flood then runs 50 % fast
	// and settles in a damped swing of about four seconds (797, 714, 595,
	// 558, 529, 499, 466, 475, 513, 552, 515 k tasks/s in successive half
	// seconds, the same in every run). The timed region starts after it.
	lead := floodLead
	if fr.o.short {
		lead = d / 4
	}
	time.Sleep(lead)
	return windowRate(d, fr.completed, &fr.timed)
}

// finish stops the chains, drains, runs the correctness checks and closes
// the runtime.
func (fr *floodRun) finish(res *result) {
	fr.stop.Store(true)
	fr.r.Drain()
	var submitted, completed, failed, disorder int64
	for _, ft := range fr.tenants {
		submitted += ft.submitted
		completed += ft.completed.Load()
		failed += ft.failed
		disorder += ft.disorder
	}
	res.attempted += submitted
	res.failed += failed
	if submitted != completed+failed {
		res.failed += submitted - completed - failed
		res.problem("flood: %d submitted but %d completed + %d refused", submitted, completed, failed)
	}
	if disorder != 0 {
		res.problem("flood: %d tasks completed out of their tenant's FIFO order", disorder)
	}
	if err := fr.r.CheckInvariants(); err != nil {
		res.problem("flood: %v", err)
	}
	if p := fr.r.TaskPanics(); p != 0 {
		res.problem("flood: %d tasks panicked", p)
	}
	fr.r.Close()
}

// classJain is flood's live fairness check. The runtime's own JainIndex() is
// not usable here: a no-op task is charged the wall time of its whole
// dispatch cycle, a few µs, and one worker descheduled mid-task for 10 ms
// (W = NumCPU, so any other goroutine displaces a worker) charges one tenant
// more than its whole fair service of the run; a handful of those outliers
// drive the per-tenant index to 0.2–0.7 on a perfectly proportional run.
func (fr *floodRun) classJain() float64 {
	var service []sfsched.Duration
	var weight []float64
	for _, st := range fr.r.Stats() {
		service, weight = append(service, st.Service), append(weight, st.Weight)
	}
	return classJain(service, weight)
}

func (fr *floodRun) abandon() {
	fr.stop.Store(true)
	fr.r.Drain()
	fr.r.Close()
}

func (fr *floodRun) latLogs() []*latLog {
	logs := make([]*latLog, len(fr.tenants))
	for i, ft := range fr.tenants {
		logs[i] = &ft.lat
	}
	return logs
}

// runFlood is the untraced end-to-end run.
func runFlood(o options, res *result) error {
	fr, setup, err := repeatSetup(func() (*floodRun, int64, error) {
		fr, err := newFloodRun(o, false)
		if err != nil {
			return nil, 0, err
		}
		return fr, fr.setupNs, nil
	}, (*floodRun).abandon)
	if err != nil {
		return err
	}
	rates, tasks := fr.measure(o.duration())
	fair := fr.classJain()
	fr.finish(res)
	if fair < 0.98 {
		res.problem("flood: Jain index over weight classes %.4f < 0.98", fair)
	}
	res.add("setup_s", setup, "s")
	res.addLive("flood", rates, fr.latLogs())
	res.extra("flood.class_jain", fair, "ratio")
	res.samples["tasks"] = tasks
	return nil
}
