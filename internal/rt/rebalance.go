// Shard rebalancing: with dispatch partitioned into per-CPU runqueues, each
// shard delivers its processors' capacity to its own tenants in proportion to
// their weights. Global fairness therefore reduces to one condition — every
// shard's total weight stays proportional to its processor count. This file
// enforces it: readjust.PlanBalance, the planner the cluster tier and the
// simulator's partitioned baseline share, decides which tenants to move, and
// migrate carries a tenant across shards with a wakeup-style virtual-time
// frame translation, so each move perturbs the tenant's allocation by at most
// its current lead over v — one quantum's worth. DESIGN.md §6 gives the full
// fairness argument.

package rt

import (
	"slices"

	"sfsched/internal/engine"
	"sfsched/internal/readjust"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// Rebalance runs one rebalancing pass: snapshot shard loads, plan moves with
// readjust.PlanBalance, and migrate the chosen tenants. Only tenants that are
// not mid-slice and have no blocked submitters are eligible; within a shard,
// candidates are offered in readjust.CompareMovers order: descending surplus
// (threads ahead of their ideal allocation lose the least from the
// wakeup-style re-entry), ties in thread-ID (registration) order. The
// surplus comes from the shard scheduler's sched.Tagged capability; policies
// without tags (time sharing, lottery) have no surplus, so their candidates
// go in thread-ID order alone, as stealFrom's do (DESIGN.md §7).
// It returns the number of tenants migrated. Concurrent mode runs it
// periodically (every DefaultRebalanceEvery); Manual mode calls it directly.
func (r *Runtime) Rebalance() int {
	if len(r.shards) < 2 || r.closed.Load() {
		return 0
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	s := &r.rebal
	if s.totals == nil {
		n := len(r.shards)
		s.totals, s.workers = make([]float64, n), make([]int, n)
		s.movable, s.handles = make([][]float64, n), make([][]*Tenant, n)
	}
	for i, sh := range r.shards {
		sh.mu.Lock()
		s.workers[i] = sh.workers
		s.totals[i] = sh.weight
		cands := s.cands[:0]
		for tn := range sh.tenants {
			if tn.pinned() {
				continue
			}
			surplus := 0.0
			if tn.inSched {
				surplus = sh.eng.Surplus(tn.th)
			}
			cands = append(cands, rebalanceCandidate{tn, surplus, tn.th.ID})
		}
		slices.SortFunc(cands, func(a, b rebalanceCandidate) int {
			return readjust.CompareMovers(a.surplus, a.id, b.surplus, b.id)
		})
		movable, handles := s.movable[i][:0], s.handles[i][:0]
		for _, c := range cands {
			movable = append(movable, c.tn.th.Weight)
			handles = append(handles, c.tn)
		}
		s.movable[i], s.handles[i] = movable, handles
		s.cands = cands
		sh.mu.Unlock()
	}
	clear(s.cands[:cap(s.cands)])
	migrated := 0
	for _, mv := range readjust.PlanBalance(s.totals, s.workers, s.movable) {
		if r.migrate(s.handles[mv.Src][mv.Idx], r.shards[mv.Src], r.shards[mv.Dst]) {
			migrated++
		}
	}
	for _, h := range s.handles {
		clear(h[:cap(h)])
	}
	if migrated > 0 {
		r.migrations.Add(int64(migrated))
	}
	return migrated
}

// rebalanceCandidate is one movable tenant and its migration preference.
type rebalanceCandidate struct {
	tn      *Tenant
	surplus float64
	id      int // tn.th.ID, the tie-break, kept beside the key the sort reads
}

// rebalanceScratch is Rebalance's working set, reused across passes under
// regMu. A pass clears every tenant reference it leaves in it, so the scratch
// never keeps an unregistered tenant alive.
type rebalanceScratch struct {
	totals  []float64
	workers []int
	movable [][]float64
	handles [][]*Tenant
	cands   []rebalanceCandidate
}

// migrate moves a tenant from src to dst, re-checking eligibility under both
// shard locks (the snapshot the plan was made from is stale by now). When
// both shard schedulers translate frames (sched.Tagged), the
// tenant's tag is re-expressed in the destination's virtual-time frame
// preserving its lead over the source's, so the §2.3 wakeup rule re-admits
// it with the same relative position it held on the source shard; policies
// without tag frames (time sharing, lottery) migrate their per-thread state
// (counters, tickets) as-is.
func (r *Runtime) migrate(tn *Tenant, src, dst *shard) bool {
	if src == dst {
		return false
	}
	lockPair(src, dst)
	if tn.sh.Load() != src || tn.pinned() {
		unlockPair(src, dst)
		return false
	}
	now := r.clock.Now()
	postSrc := postActions{sh: src}
	postDst := postActions{sh: dst}
	if tn.inSched {
		postDst.signals++
	}
	r.transferLocked(tn, src, dst, now, &postSrc, &postDst)
	unlockPair(src, dst)
	postSrc.run(r)
	postDst.run(r)
	return true
}

// transferLocked moves one tenant the caller found not pinned under both
// shard locks from src to dst. It is the mechanism migrate and the steal path
// (steal.go) share: remove from the source runnable set, carry the
// virtual-time frame lead across instances, rebind shard bookkeeping,
// re-admit on the destination under the §2.3 wakeup rule, and sweep src's
// ring for items published against the old binding. It allocates nothing,
// which is what keeps the steal hot path at 0 allocs/op.
func (r *Runtime) transferLocked(tn *Tenant, src, dst *shard, now simtime.Time, postSrc, postDst *postActions) {
	th := tn.th
	if tn.inSched {
		mustSched(src.eng.Depart(th, sched.Blocked, now))
		src.nready.Add(-1)
	}
	delete(src.tenants, tn)
	src.weight -= th.Weight
	engine.TransferLead(src.eng, dst.eng, th)
	th.LastCPU = sched.NoCPU
	dst.tenants[tn] = struct{}{}
	dst.weight += th.Weight
	// No submitter is waiting (waiters == 0, checked under both locks), so
	// rebinding the backpressure condition variable to the destination lock
	// is safe: Wait reads L at call time and Signal/Broadcast never touch it.
	// Rebinding in place instead of allocating a fresh sync.Cond keeps this
	// path allocation-free.
	tn.notFull.L = &dst.mu
	tn.sh.Store(dst)
	if tn.inSched {
		mustSched(dst.eng.Admit(th, now))
		dst.nready.Add(1)
	}
	// The sweep reads the tail once (beginDrain), strictly after the
	// tn.sh.Store above: a producer whose claim lands after that read also
	// rechecks the binding after its claim, so — by the seq-cst total order
	// on the ring tail — it observes dst and publishes a tombstone. Every
	// real item the sweep sees therefore belongs to a tenant bound to src, or
	// to the moved tenant (now bound to dst); each is absorbed under its
	// owner's lock, both of which are held.
	for i, n := 0, src.intake.beginDrain(); i < n; i++ {
		itn, q, at := src.intake.consume()
		if itn == nil {
			continue // tombstone
		}
		switch itn.sh.Load() {
		case src:
			src.applyDirectLocked(itn, q, at, now, postSrc)
		case dst:
			dst.applyDirectLocked(itn, q, at, now, postDst)
		default:
			panic("rt: intake item escaped both shards during migration")
		}
	}
}
