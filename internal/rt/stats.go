// Metrics export: the per-tenant and per-shard snapshots, the Jain index, the
// whole-runtime freeze they are cut under, and the runtime-wide counters.

package rt

import (
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

func latencyStatOf(h *metrics.Histogram) LatencyStat {
	var q [len(latencyQuantiles)]simtime.Duration
	h.Quantiles(latencyQuantiles[:], q[:])
	return LatencyStat{Count: h.Count(), P50: q[0], P95: q[1], P99: q[2], Max: h.Max()}
}

// TenantStat is a point-in-time view of one tenant, for metrics export.
type TenantStat struct {
	Name    string
	Weight  float64
	Shard   int              // shard the tenant currently lives on
	Service simtime.Duration // charged clock time
	Share   float64          // fraction of all charged time
	Lag     simtime.Duration // proportional ideal minus received (positive = behind)
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

// Stats returns per-tenant statistics in registration order, with shares and
// lags computed by internal/metrics over the charged service. The snapshot is
// a consistent cut: the whole runtime is frozen (every shard lock held, the
// same freeze CheckInvariants takes) while services and weights are read, so
// shares, lags and the Jain index are computed from one instant rather than
// skewed by charges landing between per-tenant samples. Its one allocation is
// the result.
func (r *Runtime) Stats() []TenantStat {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	r.lockShards()
	defer r.unlockShards()
	out := make([]TenantStat, 0, len(r.tenants))
	var tot metrics.Totals
	for _, tn := range r.tenants {
		if tn.gone { // finalized by Complete, not yet pruned
			continue
		}
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
			Dispatch:    latencyStatOf(&tn.waitHist),
			Wake:        latencyStatOf(&tn.wakeHist),
		})
		tot.Add(tn.th.Service, tn.th.Weight)
	}
	for i := range out {
		out[i].Share = tot.Share(out[i].Service)
		out[i].Lag = simtime.Duration(tot.Lag(out[i].Service, out[i].Weight) * float64(simtime.Second))
	}
	return out
}

// JainIndex returns Jain's fairness index of per-weight normalized charged
// service across the current tenants (1.0 = perfectly proportional), or 1
// with no tenants. Like Stats, it computes over a whole-runtime freeze so the
// service vector is a consistent cut; it allocates nothing.
func (r *Runtime) JainIndex() float64 {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	r.lockShards()
	defer r.unlockShards()
	var j metrics.Jain
	for _, tn := range r.tenants {
		if !tn.gone {
			j.Add(tn.th.Service, tn.th.Weight)
		}
	}
	return j.Index()
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
		r.shards[i].unlock()
	}
}

// TaskPanics returns how many submitted tasks panicked and were dropped.
func (r *Runtime) TaskPanics() int64 { return r.taskPanics.Load() }

// Migrations returns how many tenants the rebalancer has moved between
// shards since the runtime started.
func (r *Runtime) Migrations() int64 { return r.migrations.Load() }

// Handoffs returns how many slices the enforcer has involuntarily handed
// off since the runtime started (always 0 with enforcement disarmed).
func (r *Runtime) Handoffs() int64 { return r.handoffs.Load() }

// Steals returns how many tenants idle workers have stolen across shards
// since the runtime started (always 0 with stealing disarmed).
func (r *Runtime) Steals() int64 { return r.steals.Load() }

// ShardStat is a point-in-time view of one dispatch shard, for metrics
// export: its capacity, its sub-share of the total weight, the service it
// has delivered and the fairness of that delivery among its own tenants.
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
	Jain        float64          // Jain index of per-weight service among the shard's current tenants
	MaxLag      simtime.Duration
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

// tenantSample is one tenant's (service, weight) in ShardStats' scratch.
type tenantSample struct {
	service simtime.Duration
	weight  float64
}

// ShardStats returns per-shard statistics in shard order. Lags are computed
// against the global proportional ideal, so a shard whose tenants are
// collectively behind shows a positive MaxLag. The per-tenant samples that
// ideal needs go to a scratch reused across calls (regMu), so the result is
// the one allocation.
func (r *Runtime) ShardStats() []ShardStat {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	out := make([]ShardStat, len(r.shards))
	samples := r.statScratch[:0]
	var tot metrics.Totals
	for i, sh := range r.shards {
		sh.mu.Lock()
		st := &out[i]
		st.Shard = i
		st.Workers = sh.workers
		st.Policy = sh.eng.Scheduler().Name()
		st.Tenants = len(sh.byThread)
		st.Runnable = sh.eng.Scheduler().Runnable()
		st.Weight = sh.weight
		st.Service = sh.service
		st.Preemptions = sh.preempts
		st.Handoffs = sh.handoffs
		st.EnforceFlags = sh.enforceFlags
		st.Interims = sh.interims
		st.Overrun = latencyStatOf(&sh.overrunHist)
		st.Steals = sh.steals
		st.Stolen = sh.stolen
		st.StealWait = latencyStatOf(&sh.stealHist)
		st.Dispatch = latencyStatOf(&sh.waitHist)
		st.Wake = latencyStatOf(&sh.wakeHist)
		st.Intake = latencyStatOf(&sh.intakeHist)
		if sh.eng.VT != nil {
			st.VirtualTime = sh.eng.VT.VirtualTime()
		}
		var jain metrics.Jain
		for th := range sh.byThread {
			jain.Add(th.Service, th.Weight)
			tot.Add(th.Service, th.Weight)
			samples = append(samples, tenantSample{th.Service, th.Weight})
		}
		st.Jain = jain.Index()
		sh.unlock()
	}
	r.statScratch = samples[:0]
	var shardTot metrics.Totals
	for i := range out {
		shardTot.Service += out[i].Service
	}
	// samples holds each shard's tenants in shard order, out[i].Tenants apiece.
	for i := range out {
		out[i].Share = shardTot.Share(out[i].Service)
		for _, s := range samples[:out[i].Tenants] {
			if d := simtime.Duration(tot.Lag(s.service, s.weight) * float64(simtime.Second)); d > out[i].MaxLag {
				out[i].MaxLag = d
			}
		}
		samples = samples[out[i].Tenants:]
	}
	return out
}
