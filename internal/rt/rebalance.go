// Shard rebalancing: with dispatch partitioned into per-CPU runqueues, each
// shard delivers its processors' capacity to its own tenants in proportion to
// their weights. Global fairness therefore reduces to one condition — every
// shard's total weight stays proportional to its processor count. This file
// enforces it: a pure planner (planRebalance, fuzzed by FuzzRebalance)
// decides which tenants to move, and migrate carries a tenant across shards
// with a wakeup-style virtual-time frame translation, so each move perturbs
// the tenant's allocation by at most its current lead over v — one quantum's
// worth. DESIGN.md §6 gives the full fairness argument.

package rt

import (
	"cmp"
	"math"
	"slices"
	"time"

	"sfsched/internal/engine"
	"sfsched/internal/metrics"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

const (
	// rebalanceTolerance is the planner's hysteresis: donor/receiver pairs
	// whose transferable imbalance is below this fraction of a balanced
	// shard's weight are left alone, so balanced systems do not churn.
	rebalanceTolerance = 0.05
	// maxRebalanceMoves bounds the work of one rebalance pass; imbalance
	// that needs more moves is finished by subsequent passes.
	maxRebalanceMoves = 8
)

// rebalanceMove moves the idx-th movable tenant of shard src to shard dst.
type rebalanceMove struct {
	src, dst, idx int
}

// planRebalance chooses migrations that bring each shard's total weight
// toward target_s = Σweight · workers_s / Σworkers. It is a pure function of
// its inputs: totals holds the per-shard weight sums (including unmovable
// tenants), movable the weights of the individually movable tenants per
// shard, ordered by descending migration preference (the caller sorts by
// surplus). Each move strictly reduces the donor/receiver pair's distance to
// target, so total imbalance never grows, per-shard sums stay non-negative
// and total weight is conserved — the invariants FuzzRebalance checks.
func planRebalance(totals []float64, workers []int, movable [][]float64, tol float64) []rebalanceMove {
	n := len(totals)
	if n < 2 {
		return nil
	}
	totalWorkers := 0
	totalWeight := 0.0
	for i := range totals {
		totalWorkers += workers[i]
		totalWeight += totals[i]
	}
	if totalWorkers == 0 || totalWeight <= 0 {
		return nil
	}
	target := make([]float64, n)
	for i := range target {
		target[i] = totalWeight * float64(workers[i]) / float64(totalWorkers)
	}
	cur := append([]float64(nil), totals...)
	used := make([][]bool, n)
	for i := range used {
		used[i] = make([]bool, len(movable[i]))
	}
	var moves []rebalanceMove
	for len(moves) < maxRebalanceMoves {
		donor, recv := 0, 0
		for i := range cur {
			if cur[i]-target[i] > cur[donor]-target[donor] {
				donor = i
			}
			if cur[i]-target[i] < cur[recv]-target[recv] {
				recv = i
			}
		}
		excess, deficit := cur[donor]-target[donor], target[recv]-cur[recv]
		need := math.Min(excess, deficit)
		if need <= tol*totalWeight/float64(n) {
			break
		}
		// The best candidate leaves the donor/receiver pair closest to
		// target. Candidates are pre-ordered by migration preference, so
		// among equally-good fits the first (highest surplus) wins.
		best, bestAfter := -1, excess+deficit
		for j, w := range movable[donor] {
			if used[donor][j] {
				continue
			}
			after := math.Abs(excess-w) + math.Abs(deficit-w)
			if after < bestAfter-1e-12 {
				best, bestAfter = j, after
			}
		}
		if best < 0 {
			break // nothing movable improves the worst pair
		}
		used[donor][best] = true
		w := movable[donor][best]
		cur[donor] -= w
		cur[recv] += w
		moves = append(moves, rebalanceMove{src: donor, dst: recv, idx: best})
	}
	return moves
}

// Rebalance runs one rebalancing pass: snapshot shard loads, plan moves with
// planRebalance, and migrate the chosen tenants. Only tenants that are not
// mid-slice and have no blocked submitters are eligible; within a shard,
// candidates are offered in descending surplus order (threads ahead of their
// ideal allocation lose the least from the wakeup-style re-entry). The
// surplus comes from the shard scheduler's sched.LagReporter capability when
// it has one, and otherwise from the generic service-minus-entitlement lag of
// metrics.Lags over the shard's candidates — coarser (whole-lifetime service
// instead of instantaneous tags; see DESIGN.md §7) but policy-agnostic, which
// is what lets time sharing and lottery shard at all.
// It returns the number of tenants migrated. Concurrent mode runs it
// periodically (Config.RebalanceEvery); Manual mode calls it directly.
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
		for th, tn := range sh.byThread {
			// A detached tenant's head task is still executing out of band on
			// this shard even though its thread shows no CPU; it is pinned here
			// until the handed-off slice's Complete, exactly like a running one.
			if tn.closing || tn.gone || th.Running() || tn.detached || tn.waiters > 0 {
				continue
			}
			surplus := 0.0
			if sh.eng.Lag != nil && tn.inSched {
				surplus = sh.eng.Surplus(th)
			}
			cands = append(cands, rebalanceCandidate{tn, surplus, th.ID})
		}
		if sh.eng.Lag == nil && len(cands) > 1 {
			// Generic fallback: surplus = received − entitled over the
			// candidate set (the negated metrics lag).
			var tot metrics.Totals
			for _, c := range cands {
				tot.Add(c.tn.th.Service, c.tn.th.Weight)
			}
			for j, c := range cands {
				cands[j].surplus = -tot.Lag(c.tn.th.Service, c.tn.th.Weight)
			}
		}
		slices.SortFunc(cands, func(a, b rebalanceCandidate) int {
			switch {
			case a.surplus > b.surplus:
				return -1
			case a.surplus < b.surplus:
				return 1
			}
			return cmp.Compare(a.id, b.id)
		})
		movable, handles := s.movable[i][:0], s.handles[i][:0]
		for _, c := range cands {
			movable = append(movable, c.tn.th.Weight)
			handles = append(handles, c.tn)
		}
		s.movable[i], s.handles[i] = movable, handles
		s.cands = cands
		sh.unlock()
	}
	clear(s.cands[:cap(s.cands)])
	moves := planRebalance(s.totals, s.workers, s.movable, rebalanceTolerance)
	migrated := 0
	for _, mv := range moves {
		if r.migrate(s.handles[mv.src][mv.idx], r.shards[mv.src], r.shards[mv.dst]) {
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
// both shard schedulers translate frames (sched.FrameTranslator), the
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
	th := tn.th
	if tn.sh.Load() != src || tn.closing || tn.gone || th.Running() || tn.detached || tn.waiters > 0 {
		unlockPair(src, dst)
		return false
	}
	now := r.clock.Now()
	postSrc := postActions{sh: src}
	postDst := postActions{sh: dst}
	r.transferLocked(tn, src, dst, now)
	if tn.inSched {
		postDst.signals++
	}
	r.sweepIntakeLocked(src, dst, now, &postSrc, &postDst)
	unlockPair(src, dst)
	postSrc.run(r)
	postDst.run(r)
	return true
}

// transferLocked moves one eligible tenant (not running, not detached, no
// blocked submitters — the caller has re-checked under the locks) from src to
// dst with both shard locks held. It is the mechanism migrate and the steal
// path (steal.go) share: remove from the source runnable set, carry the
// virtual-time frame lead across instances, rebind shard bookkeeping, and
// re-admit on the destination under the §2.3 wakeup rule. It allocates
// nothing, which is what keeps the steal hot path at 0 allocs/op.
func (r *Runtime) transferLocked(tn *Tenant, src, dst *shard, now simtime.Time) {
	th := tn.th
	if tn.inSched {
		mustSched(src.eng.Depart(th, sched.Blocked, now))
		src.nready.Add(-1)
	}
	delete(src.byThread, th)
	src.weight -= th.Weight
	src.queued -= tn.n
	engine.TransferLead(src.eng, dst.eng, th)
	th.LastCPU = sched.NoCPU
	dst.byThread[th] = tn
	dst.weight += th.Weight
	dst.queued += tn.n
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
}

// sweepIntakeLocked drains src's intake ring with both shard locks held,
// absorbing every item that could still name a binding moved by the transfer
// just performed. The tail is read once (beginDrain), strictly after the
// transfer's tn.sh.Store: a producer whose claim lands after that read also
// rechecks the binding after its claim, so — by the seq-cst total order on
// the ring tail — it observes dst and publishes a tombstone. Every real item
// the sweep sees therefore belongs to a tenant currently bound to src, or to
// the moved tenant (now bound to dst); each is absorbed under its owner's
// lock, both of which are held.
func (r *Runtime) sweepIntakeLocked(src, dst *shard, now simtime.Time, postSrc, postDst *postActions) {
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

// rebalanceLoop is the background rebalancer (concurrent mode, Shards > 1).
func (r *Runtime) rebalanceLoop(every time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stopRebalance:
			return
		case <-t.C:
			r.Rebalance()
		}
	}
}
