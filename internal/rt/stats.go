// Metrics export: the per-tenant and per-shard snapshots, the whole-runtime
// freeze the tenant snapshot is cut under, and the runtime-wide counters.

package rt

import (
	"slices"

	"sfsched/internal/metrics"
	"sfsched/internal/simtime"
)

// LatencyStat summarizes one latency distribution for metrics export.
// Quantiles come from the log-bucketed metrics.Histogram and overestimate by
// at most 25% (one sub-bucket).
type LatencyStat struct {
	Count         uint64
	P50, P95, P99 simtime.Duration
	Max           simtime.Duration
}

// latencyQuantiles are P50, P95 and P99, ascending for Histogram.Quantiles.
var latencyQuantiles = [...]float64{0.50, 0.95, 0.99}

// latencyStatOf summarizes h from scratch: one scan of its buckets.
func latencyStatOf(h *metrics.Histogram) LatencyStat {
	var q [len(latencyQuantiles)]simtime.Duration
	h.Quantiles(latencyQuantiles[:], q[:])
	return LatencyStat{Count: h.Count(), P50: q[0], P95: q[1], P99: q[2], Max: h.Max()}
}

// latencyHist is a latency histogram with its last summary: the quantiles and
// the sample count they were cut at. A histogram only grows, so while its
// count is the cut's the quantiles still hold, and Stats and ShardStats scan
// only the histograms that recorded since the previous call. The cut keeps no
// Max (a field read) and no whole LatencyStat: Tenant embeds two of these and
// must stay in its allocation size class (TestTenantSizeClass).
type latencyHist struct {
	metrics.Histogram
	cutAt         uint64
	p50, p95, p99 simtime.Duration
}

// stat returns the histogram's summary, re-cut only when its count moved.
// Callers hold the lock the histogram records under.
func (h *latencyHist) stat() LatencyStat {
	if n := h.Count(); n != h.cutAt {
		s := latencyStatOf(&h.Histogram)
		h.cutAt, h.p50, h.p95, h.p99 = n, s.P50, s.P95, s.P99
	}
	return LatencyStat{Count: h.cutAt, P50: h.p50, P95: h.p95, P99: h.p99, Max: h.Max()}
}

// TenantStat is a point-in-time view of one tenant, for metrics export.
type TenantStat struct {
	Name    string
	Weight  float64
	Shard   int              // shard the tenant currently lives on
	Service simtime.Duration // charged clock time
	Share   float64          // fraction of all charged time
	// Lag is the service GMS over every worker would have delivered, on
	// §2.1's readjusted weights, minus what the tenant received (positive =
	// behind): metrics.GMSLag. It is exact for continuously backlogged
	// tenants; a tenant that sleeps reads its sleep as service owed.
	Lag     simtime.Duration
	Queued  int
	Running bool
	// Preemptions counts this tenant's slices flagged for cooperative
	// preemption (a newly woken tenant out-ranked it); Resumes counts
	// dispatches that continued an unfinished task — a preempted-and-resumed
	// continuation is distinguishable from a fresh dispatch; TaskPanics
	// counts this tenant's panicking tasks, so a misbehaving tenant is
	// identifiable rather than drowned in the global counter; Handoffs
	// counts this tenant's slices the enforcer involuntarily handed off —
	// the adversarial-hog fingerprint.
	Preemptions int64
	Resumes     int64
	TaskPanics  int64
	Handoffs    int64
	// Dispatch is the ready→dispatch latency distribution: every interval
	// from the instant the tenant became dispatchable (woke, or completed a
	// slice with work left) to its next dispatch. Wake restricts to wakeups:
	// a Submit that found the tenant blocked, to its first dispatch — the
	// paper's interactive response-time metric (Figure 6(c)).
	Dispatch LatencyStat
	Wake     LatencyStat
}

// Stats returns per-tenant statistics in registration order, with shares
// and lags computed by internal/metrics over the charged service. The
// snapshot is a consistent cut: the whole runtime is frozen (every shard lock
// held, the same freeze CheckInvariants takes) while services and weights
// are read, so shares and lags are computed from one instant rather than
// skewed by charges landing between per-tenant samples. The lag pass reuses
// its scratch under the freeze, so the one allocation is the result.
func (r *Runtime) Stats() []TenantStat {
	r.lockShards()
	defer r.unlockShards()
	tenants := r.frozenTenants()
	defer clear(tenants)
	out := make([]TenantStat, 0, len(tenants))
	var tot metrics.Totals
	for _, reg := range tenants {
		tn := reg.tn
		sh := tn.sh.Load() // stable: migration needs the shard locks we hold
		out = append(out, TenantStat{
			Name:        tn.th.Name,
			Weight:      tn.th.Weight,
			Shard:       sh.id,
			Service:     tn.th.Service,
			Queued:      tn.n,
			Running:     tn.th.Running() || tn.detached,
			Preemptions: tn.preempts,
			Resumes:     tn.resumes,
			TaskPanics:  tn.panics.Load(),
			Handoffs:    tn.handoffs,
			Dispatch:    tn.waitHist.stat(),
			Wake:        tn.wakeHist.stat(),
		})
		tot.Add(tn.th.Service, tn.th.Weight)
		r.lag.Add(tn.th.Service, tn.th.Weight)
	}
	for i, lag := range r.lag.Lags(r.Workers()) {
		out[i].Share = tot.Share(out[i].Service)
		out[i].Lag = simtime.Duration(lag * float64(simtime.Second))
	}
	return out
}

// frozenTenants lists the live tenants — the union of the shard sets — in
// registration order: Register hands out thread IDs in that order. The list
// is the frozen scratch, which the caller holds the freeze for and clears
// after use so it never keeps an unregistered tenant alive.
func (r *Runtime) frozenTenants() []registered {
	tenants := r.frozen[:0]
	for _, sh := range r.shards {
		for tn := range sh.tenants {
			tenants = append(tenants, registered{tn.th.ID, tn})
		}
	}
	// IDs are positive, so the difference cannot overflow.
	slices.SortFunc(tenants, func(a, b registered) int { return a.id - b.id })
	r.frozen = tenants
	return tenants
}

// registered is a live tenant and its thread ID, the key frozenTenants sorts
// on beside the pointer, so the sort reads no tenant.
type registered struct {
	id int
	tn *Tenant
}

// lockShards freezes the whole runtime by taking every shard lock in
// ascending id order (the documented lock order); unlockShards releases in
// reverse. Metrics exports and invariant checks use the pair so their
// snapshots are consistent cuts.
func (r *Runtime) lockShards() {
	for _, sh := range r.shards {
		sh.mu.Lock()
	}
}

func (r *Runtime) unlockShards() {
	for i := len(r.shards) - 1; i >= 0; i-- {
		r.shards[i].mu.Unlock()
	}
}

// TaskPanics returns how many submitted tasks panicked and were dropped.
func (r *Runtime) TaskPanics() int64 { return r.taskPanics.Load() }

// Migrations returns how many tenants the rebalancer has moved between
// shards since the runtime started.
func (r *Runtime) Migrations() int64 { return r.migrations.Load() }

// Handoffs returns how many slices the enforcer has involuntarily handed
// off since the runtime started (always 0 with enforcement disarmed).
func (r *Runtime) Handoffs() int64 { return r.shardSum(func(sh *shard) int64 { return sh.handoffs }) }

// Steals returns how many tenants idle workers have stolen across shards
// since the runtime started (always 0 with stealing disarmed).
func (r *Runtime) Steals() int64 { return r.shardSum(func(sh *shard) int64 { return sh.steals }) }

// shardSum adds up one per-shard counter, taking each shard lock briefly.
func (r *Runtime) shardSum(field func(*shard) int64) (n int64) {
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += field(sh)
		sh.mu.Unlock()
	}
	return n
}

// ShardStat is a point-in-time view of one dispatch shard, for metrics
// export: its capacity, its sub-share of the total weight and the service it
// has delivered.
type ShardStat struct {
	Shard    int
	Workers  int
	Policy   string  // shard scheduler's Name()
	Tenants  int     // tenants currently assigned to the shard
	Runnable int     // tenants in the shard's runnable set
	Weight   float64 // Σ tenant weights: the shard's sub-share
	// VirtualTime is the shard scheduler's current virtual time when the
	// policy reports one (sched.VirtualTimer: the fair-queueing family and
	// stride), and 0 for policies without a virtual-time notion.
	VirtualTime float64
	Service     simtime.Duration // time charged on this shard (stays here when tenants migrate)
	Share       float64          // fraction of all charged time delivered by this shard
	// Preemptions counts the cooperative preemption flags raised on this
	// shard's slices; Dispatch and Wake are the shard-level ready→dispatch
	// and wakeup→first-dispatch latency distributions (recorded where the
	// dispatch happened, so they stay with the shard when tenants migrate).
	Preemptions int64
	// Enforcement counters (enforcer.go), all zero with enforcement disarmed:
	// Handoffs counts involuntary handoffs of expired plain-Task slices,
	// EnforceFlags the preemption flags raised by slice expiry (a subset of
	// Preemptions), Interims the mid-slice charge installments applied, and
	// Overrun the distribution of how far past their granted slice handed-off
	// tasks kept running before their closure returned.
	Handoffs     int64
	EnforceFlags int64
	Interims     int64
	Overrun      LatencyStat
	// Work-stealing counters (steal.go), all zero with stealing disarmed:
	// Steals counts thefts performed by this shard's idle workers, Stolen the
	// tenants other shards pulled from this one, and StealWait the
	// distribution of how long each stolen tenant had sat ready on its victim
	// shard before a thief moved it — the transient-imbalance window that
	// stealing (rather than the periodic rebalancer) closed.
	Steals    int64
	Stolen    int64
	StealWait LatencyStat
	Dispatch  LatencyStat
	Wake      LatencyStat
	// Intake is the submit→ready stage: how long accepted submissions sat
	// in this shard's intake ring before a drain absorbed them into their
	// tenant's backlog (near zero unless every worker is pinned by
	// long-running slices between drains).
	Intake LatencyStat
}

// ShardStats returns per-shard statistics in shard order, taking each shard
// lock in turn. Its one allocation is the result.
func (r *Runtime) ShardStats() []ShardStat {
	out := make([]ShardStat, len(r.shards))
	var tot metrics.Totals
	for i, sh := range r.shards {
		sh.mu.Lock()
		st := &out[i]
		st.Shard = i
		st.Workers = sh.workers
		st.Policy = sh.eng.Scheduler().Name()
		st.Tenants = len(sh.tenants)
		st.Runnable = sh.eng.Scheduler().Runnable()
		st.Weight = sh.weight
		st.Service = sh.service
		st.Preemptions = sh.preempts
		st.Handoffs = sh.handoffs
		st.EnforceFlags = sh.enforceFlags
		st.Interims = sh.interims
		st.Overrun = sh.overrunHist.stat()
		st.Steals = sh.steals
		st.Stolen = sh.stolen
		st.StealWait = sh.stealHist.stat()
		st.Dispatch = sh.waitHist.stat()
		st.Wake = sh.wakeHist.stat()
		st.Intake = sh.intakeHist.stat()
		if sh.eng.VT != nil {
			st.VirtualTime = sh.eng.VT.VirtualTime()
		}
		sh.mu.Unlock()
		tot.Service += st.Service
	}
	for i := range out {
		out[i].Share = tot.Share(out[i].Service)
	}
	return out
}
