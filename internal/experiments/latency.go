// Live interactive-latency comparison: the wall-clock reprise of the paper's
// Figure 6(c), where the Interact application competes with a growing pool of
// compute-bound disksim jobs and the metric is its response-time
// distribution. Here one interactive tenant (short burst, think, repeat)
// shares the runtime with N preemptible CPU hogs; the reported quantiles are
// the runtime's own wakeup→first-dispatch histograms (internal/metrics, per
// tenant), so the experiment exercises the production instrumentation rather
// than a side channel. With cooperative wakeup preemption enabled and a
// sched.Preempter policy (SFS, SFQ, stride, BVT, hier), a wakeup flags the
// worst-ranked running hog, the hog yields at its next checkpoint, and the
// interactive p95 collapses to the checkpoint granularity; with preemption
// off — or under time sharing, which has no preemption order — the wakeup
// waits out running slices. cmd/livecmp -latency tabulates it;
// internal/rt/preempt_test.go pins the same contrast deterministically on a
// FakeClock.

package experiments

import (
	"fmt"
	"runtime"
	"time"

	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// LiveLatencyConfig parameterizes one wall-clock latency run.
type LiveLatencyConfig struct {
	// Workers is the runtime worker pool size (0 = GOMAXPROCS).
	Workers int
	// Shards is the dispatch shard count (0 = 1, the central runqueue).
	Shards int
	// Hogs is the number of background compute-bound tenants (the paper's
	// disksim pool). 0 = 8, Figure 6(c)'s heaviest point.
	Hogs int
	// Duration is how long the load runs. 0 = 1 s.
	Duration time.Duration
	// Grant is the hogs' cooperative checkpoint granularity: how often a
	// hog polls Preempted. 0 = 1 ms, the floor the preempted-side p95
	// collapses to.
	Grant time.Duration
	// Burst is the interactive tenant's CPU demand per wakeup. 0 = 500 µs.
	Burst time.Duration
	// Think is the interactive tenant's idle time between wakeups. 0 = 5 ms.
	Think time.Duration
	// SliceCap bounds how much CPU a hog burns per dispatch, as in
	// LiveConfig. 0 = 25 ms. Sub-tick caps are safe under time sharing too:
	// the scheduler carries fractional-tick remainders, so hog chunks below
	// one 10 ms tick still decay the hogs' counters at their true CPU rate.
	SliceCap time.Duration
	// Preempt arms cooperative wakeup preemption.
	Preempt bool
	// Enforce arms involuntary slice enforcement (rt.Config.Enforce): the
	// background enforcer interim-charges in-flight slices and hands off
	// expired slices of tasks that cannot or will not yield.
	Enforce bool
	// Adversarial submits the hogs as plain Tasks that never poll a
	// preemption flag — the worst case cooperative preemption cannot touch.
	// Without Enforce, a woken interactive tenant waits out whole hog
	// slices; with it, the enforcer detaches each expired hog slice and a
	// spare worker takes over the lane, bounding the wake latency by the
	// enforcement tick. The cooperative checkpoint granularity (Grant) is
	// ignored for adversarial hogs.
	Adversarial bool
}

// LiveLatencyResult is the outcome of one policy's wall-clock latency run.
type LiveLatencyResult struct {
	Policy  string // scheduler's Name() as reported by the shards
	Preempt bool
	Enforce bool
	Hogs    int
	Wakes   uint64 // interactive wakeups measured
	// Interactive wakeup→first-dispatch latency quantiles, from the
	// runtime's per-tenant histogram.
	P50, P95, P99, Max time.Duration
	// Preemptions is the number of cooperative preemption flags raised
	// against hog slices.
	Preemptions int64
	// Handoffs is the number of involuntary handoffs the enforcer performed
	// against hog slices (0 unless Enforce).
	Handoffs int64
}

// RunLiveLatency subjects one policy to the interactive-vs-hogs workload on
// the wall-clock runtime and reports the interactive tenant's dispatch
// latency distribution.
func RunLiveLatency(policy rt.Policy, cfg LiveLatencyConfig) LiveLatencyResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	hogs := cfg.Hogs
	if hogs <= 0 {
		hogs = 8
	}
	grant := cfg.Grant
	if grant <= 0 {
		grant = time.Millisecond
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = 500 * time.Microsecond
	}
	think := cfg.Think
	if think <= 0 {
		think = 5 * time.Millisecond
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = time.Second
	}
	sliceCap := cfg.SliceCap
	if sliceCap <= 0 {
		sliceCap = 25 * time.Millisecond
	}
	r := rt.New(rt.Config{Workers: workers, Shards: shards, Policy: policy,
		QueueCap: 2, Preempt: cfg.Preempt, Enforce: cfg.Enforce})
	for i := 0; i < hogs; i++ {
		hog, err := r.Register(fmt.Sprintf("hog-%d", i), 1)
		if err != nil {
			panic(err) // static configuration; cannot fail under valid weights
		}
		if cfg.Adversarial {
			// A non-cooperating compute-bound tenant: a plain Task that
			// burns its slice with no checkpoints — deaf to preemption
			// flags, recoverable only by involuntary handoff.
			if err := hog.SubmitTask(func(slice simtime.Duration) bool {
				d := slice.Std()
				if d > sliceCap {
					d = sliceCap
				}
				spinFor(d)
				return false // compute-bound: never finishes, stays backlogged
			}); err != nil {
				panic(err)
			}
			continue
		}
		// A well-behaved compute-bound tenant: spin through the slice in
		// checkpoint-sized chunks, yielding early when flagged; unfinished
		// work continues on the next dispatch.
		if err := hog.SubmitTask(nil, rt.Preemptible(func(ctx rt.SliceCtx) bool {
			d := ctx.Slice().Std()
			if d > sliceCap {
				d = sliceCap
			}
			deadline := time.Now().Add(d)
			for time.Now().Before(deadline) && !ctx.Preempted() {
				step := grant
				if left := time.Until(deadline); left < step {
					step = left
				}
				spinFor(step)
			}
			return false // compute-bound: never finishes, stays backlogged
		})); err != nil {
			panic(err)
		}
	}
	interact, err := r.Register("interact", 1)
	if err != nil {
		panic(err)
	}
	// Interact: think (blocked — the next Submit is a wakeup), then a short
	// burst, completed before the next think so the tenant truly sleeps.
	done := make(chan struct{}, 1)
	stop := time.Now().Add(duration)
	for time.Now().Before(stop) {
		time.Sleep(think)
		if err := interact.SubmitTask(rt.Once(func() {
			spinFor(burst)
			done <- struct{}{}
		})); err != nil {
			panic(err)
		}
		<-done
	}
	res := LiveLatencyResult{Preempt: cfg.Preempt, Enforce: cfg.Enforce, Hogs: hogs}
	for _, s := range r.Stats() {
		if s.Name == "interact" {
			res.Wakes = s.Wake.Count
			res.P50 = s.Wake.P50.Std()
			res.P95 = s.Wake.P95.Std()
			res.P99 = s.Wake.P99.Std()
			res.Max = s.Wake.Max.Std()
		} else {
			res.Preemptions += s.Preemptions
			res.Handoffs += s.Handoffs
		}
	}
	for _, ss := range r.ShardStats() {
		res.Policy = ss.Policy // every shard runs the same policy
	}
	r.Close() // abandons the perpetual hogs
	return res
}

// CrossPolicyLiveLatency runs the latency workload under each policy with
// preemption armed and disarmed, the full Figure 6(c) comparison grid.
func CrossPolicyLiveLatency(policies []rt.Policy, cfg LiveLatencyConfig) []LiveLatencyResult {
	out := make([]LiveLatencyResult, 0, 2*len(policies))
	for _, p := range policies {
		on := cfg
		on.Preempt = true
		off := cfg
		off.Preempt = false
		out = append(out, RunLiveLatency(p, on), RunLiveLatency(p, off))
	}
	return out
}

// LatencyTable renders latency results Figure-6(c)-style: one row per
// (policy, preemption, enforcement) cell with the interactive
// dispatch-latency quantiles.
func LatencyTable(results []LiveLatencyResult) string {
	tbl := &metrics.Table{
		Headers: []string{"policy", "preempt", "enforce", "hogs", "wakes", "p50_ms", "p95_ms", "p99_ms", "max_ms", "preemptions", "handoffs"},
	}
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
	}
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	for _, res := range results {
		tbl.AddRow(res.Policy, onOff(res.Preempt), onOff(res.Enforce),
			fmt.Sprintf("%d", res.Hogs),
			fmt.Sprintf("%d", res.Wakes),
			ms(res.P50), ms(res.P95), ms(res.P99), ms(res.Max),
			fmt.Sprintf("%d", res.Preemptions),
			fmt.Sprintf("%d", res.Handoffs))
	}
	return tbl.String()
}
