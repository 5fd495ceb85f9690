// The node seam: the narrow view of a Runtime the cluster tier
// (internal/cluster) composes. One Runtime arbitrates one machine; a cluster
// scheduler owns many and needs exactly three things beyond the ordinary
// tenant API — a cheap load summary to place new tenants with
// power-of-k-choices (Load), and an eviction/admission pair to migrate a
// tenant between machines (Deport/Admit) the same way the intra-box
// rebalancer migrates one between shards: drain the source backlog, carry the
// virtual-time frame lead across (sched.FrameTranslator), re-register under
// the §2.3 wakeup rule, replay the backlog. Everything here is ordinary
// exported Runtime API, so *rt.Runtime satisfies cluster.Node structurally
// and the cluster package never names a runtime internal.

package rt

import (
	"errors"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// ErrMigrationRace reports a Deport attempt against a tenant that is briefly
// unmovable: mid-slice on a worker, detached by the enforcer, holding blocked
// submitters, or with accepted submissions still in flight toward its
// backlog. The condition is transient; callers retry on a later pass.
var ErrMigrationRace = errors.New("rt: tenant busy, migration would race")

// NodeLoad is a point-in-time load summary of one runtime, the signal
// power-of-k-choices placement probes: Weight/Workers is the machine's
// weighted load density, Queued breaks ties between equally loaded machines.
type NodeLoad struct {
	Workers int     // worker pool size
	Tenants int     // registered tenants
	Weight  float64 // Σ tenant weights
	// Queued counts accepted, unfinished tasks across all tenants: the shard
	// task counters Drain sums. In concurrent mode it includes submissions
	// still in an intake ring.
	Queued int
}

// Load returns the runtime's current load summary. It takes each shard lock
// briefly (never all at once), so the summary is cheap but only
// per-shard-consistent — exactly good enough for a placement probe.
func (r *Runtime) Load() NodeLoad {
	l := NodeLoad{Workers: len(r.workerShard), Queued: int(r.taskSum())}
	for _, sh := range r.shards {
		sh.mu.Lock()
		l.Tenants += len(sh.tenants)
		l.Weight += sh.weight
		sh.mu.Unlock()
	}
	return l
}

// QueuedTask is one backlog entry in transit between machines: exactly one of
// the two task forms is set.
type QueuedTask struct {
	Run Task
	Pre PreemptibleTask
}

// Departure is a deported tenant: everything a destination machine needs to
// re-create it with Admit. Lead is the tenant's virtual-time frame lead on
// the source machine (how far its tag sat ahead of the source's virtual
// time), valid when HasLead is set — the same lead-preserving translation the
// intra-box rebalancer applies across shards, here carried across machines.
type Departure struct {
	Name    string
	Weight  float64
	Service simtime.Duration // charged service carried for global accounting
	Lead    float64
	HasLead bool
	Backlog []QueuedTask
}

// Deport atomically unregisters an idle tenant and returns its remaining
// backlog and virtual-time frame lead, for re-admission on another runtime
// (Admit). It fails with ErrMigrationRace when the tenant is momentarily
// unmovable — running a slice, detached by the enforcer, holding blocked
// submitters, or with accepted submissions not yet absorbed into its
// backlog — and with ErrTenantClosed after Unregister. An unfinished head
// task (one whose last dispatch returned false) does NOT block deportation:
// replaying it on the destination re-invokes the closure exactly as the next
// local continuation dispatch would, which tasks must tolerate by contract
// (returning false means "call me again"); only the Resumes counter restarts.
// This matters for the paper's workload — perpetually compute-bound tenants
// never retire their head task, and refusing them would make exactly the
// tenants worth migrating unmovable. After a successful Deport the tenant
// handle is dead exactly as after Unregister.
func (r *Runtime) Deport(tn *Tenant) (Departure, error) {
	if tn.r != r {
		return Departure{}, ErrForeignTenant
	}
	sh := tn.lockShard()
	if tn.closing.Load() {
		sh.mu.Unlock()
		return Departure{}, ErrTenantClosed
	}
	// Absorb any ring-resident submissions first so the backlog is complete;
	// the few worker signals a drain can owe are issued by post.run after the
	// unlock (this is not a hot path). One clock read covers the drain and
	// the removal below.
	now := r.clock.Now()
	post := postActions{sh: sh}
	sh.drainLocked(now, &post)
	if tn.pinned() || tn.pending.Load() != int64(tn.n) {
		// The pending-gate mismatch is a submission accepted but not yet
		// pushed onto the ring; deporting now would strand it on a dead
		// binding (the submitter's retry loop handles a *migrated* tenant,
		// not an unregistered one, and replaying it here would reorder it
		// ahead of its producer's earlier items).
		sh.mu.Unlock()
		post.run(r)
		return Departure{}, ErrMigrationRace
	}
	th := tn.th
	dep := Departure{Name: th.Name, Weight: th.Weight, Service: th.Service}
	if tn.inSched {
		mustSched(sh.eng.Depart(th, sched.Blocked, now))
		tn.inSched = false
		sh.nready.Add(-1) // was runnable-not-running (the Running case failed above)
	}
	// The frame lead is read with the thread outside the runnable set
	// (departed just above), per the sched.FrameTranslator contract. A
	// negative lead (behind the source's virtual time) is clamped by the
	// engine: the wakeup rule S_i = max(F_i, v) would erase it on
	// re-admission anyway, and the clamp keeps cross-machine migration from
	// minting credit.
	if lead, ok := sh.eng.CaptureLead(th); ok {
		dep.Lead, dep.HasLead = lead, true
	}
	if tn.n > 0 {
		dep.Backlog = make([]QueuedTask, 0, tn.n)
		for tn.n > 0 {
			q := tn.buf[tn.head]
			dep.Backlog = append(dep.Backlog, QueuedTask{Run: q.run, Pre: q.pre})
			tn.pop()
		}
	}
	tn.closing.Store(true)
	th.State = sched.Exited
	sh.finalizeLocked(tn)
	sh.mu.Unlock()
	post.run(r)
	return dep, nil
}

// Admit re-creates a deported tenant on this runtime: register at the carried
// weight, restore the virtual-time frame lead before the first submission
// (when this runtime's shard scheduler translates frames), and replay the
// backlog in order. The returned handle is the tenant's new identity. A
// partially admitted tenant (runtime closed mid-replay) returns the error
// alongside the handle; the remaining backlog tasks are dropped, exactly as
// Close drops any other queued work.
func (r *Runtime) Admit(dep Departure) (*Tenant, error) {
	tn, err := r.Register(dep.Name, dep.Weight)
	if err != nil {
		return nil, err
	}
	sh := tn.lockShard()
	// Charged service is pure accounting (schedulers decide by tag, and
	// charge by increment), so restoring it before the first submission
	// keeps cluster-wide shares and lags continuous across the move.
	tn.th.Service = dep.Service
	if dep.HasLead {
		// The thread has never been submitted, so it is outside every
		// runnable set — the state SetFrameLead requires. Its first Add
		// then applies the wakeup rule against the restored tag.
		sh.eng.RestoreLead(tn.th, dep.Lead)
	}
	sh.mu.Unlock()
	for _, q := range dep.Backlog {
		if q.Pre != nil {
			err = tn.SubmitTask(nil, Preemptible(q.Pre))
		} else {
			err = tn.SubmitTask(q.Run)
		}
		if err != nil {
			return tn, err
		}
	}
	return tn, nil
}

// Service returns the tenant's charged service so far. Unlike Runtime.Stats
// it freezes only the tenant's own shard, so a caller aggregating many
// tenants reads a per-tenant-consistent (not cluster-consistent) snapshot —
// the trade the cluster migrator makes to rank candidates cheaply.
func (tn *Tenant) Service() simtime.Duration {
	sh := tn.lockShard()
	defer sh.mu.Unlock()
	return tn.th.Service
}

// Weight returns the tenant's current weight.
func (tn *Tenant) Weight() float64 {
	sh := tn.lockShard()
	defer sh.mu.Unlock()
	return tn.th.Weight
}

// BalanceMove is one planned migration: move the Idx-th movable tenant of
// node Src to node Dst.
type BalanceMove struct {
	Src, Dst, Idx int
}

// PlanBalance exposes the pure rebalance planner (planRebalance, fuzzed by
// FuzzRebalance) to the cluster tier: given per-node total weights, worker
// counts and per-node movable tenant weights in descending migration
// preference, it plans moves that bring every node's weight toward
// target_n = Σweight · workers_n / Σworkers. The invariants are the
// intra-box planner's: weight is conserved, per-node sums stay non-negative,
// and total imbalance never grows. tol ≤ 0 uses the intra-box hysteresis
// default.
func PlanBalance(totals []float64, workers []int, movable [][]float64, tol float64) []BalanceMove {
	if tol <= 0 {
		tol = rebalanceTolerance
	}
	moves := planRebalance(totals, workers, movable, tol)
	out := make([]BalanceMove, len(moves))
	for i, m := range moves {
		out[i] = BalanceMove{Src: m.src, Dst: m.dst, Idx: m.idx}
	}
	return out
}
