// Idle-path cross-shard work stealing: the microsecond-granularity complement
// to the periodic rebalancer.
//
// The paper rejects partitioned scheduling in §1.2 because infrequent
// rebalancing leaves processors idle next to backlogged ones. Sharded
// dispatch (PR 3) reintroduced exactly that gap: a shard whose tenants all
// block parks its workers on workCond while a sibling's runqueue overflows,
// and the only remedy — the surplus-driven rebalancer — runs at a period
// (100 ms default) five orders of magnitude above a dispatch. With
// Config.Sharding.Steal armed, an idle worker closes the gap itself. Every
// concurrent worker that finds its shard's runqueue and intake ring empty
// runs one idle loop (worker.go): (1) it polls its shard off the lock for a
// bounded number of probes, in case local work is already in flight, (2)
// with Steal armed it attempts a bounded number of steals from the most
// backlogged siblings, and only then (3) it parks. Armed, the poll also
// reads one sibling's nready per probe and ends early on a backlog, so a
// steal never waits for the poll to run out.
//
// Victim selection is lock-free: each shard maintains nready, an atomic count
// of its runnable-not-running tenants (published under the shard lock, net
// once per lock hold on the worker's path, so a thief sees a change at most
// one hold late; one more while its doorbell is up), and the thief probes the
// argmax without touching any lock.
// The steal itself takes both shard locks in the canonical ascending-id
// order — the same two-lock protocol migrate uses, so steals, migrations,
// enforcement handoffs and cluster Deport/Admit serialize against each other
// without new lock-order edges. Under the locks the thief first drains the
// victim's intake ring (ring items are strictly older than anything the
// runqueue scan sees, and absorbing them may surface a better candidate),
// then transfers the highest-surplus ready tenant — ranked by the policy's
// own sched.Tagged surplus, the §3.1 α_i = φ_i·(S_i − v) under SFS —
// through transferLocked, the lead-preserving virtual-time frame translation
// migration already proved fairness-safe (DESIGN.md §6): the move perturbs
// the tenant's allocation by at most its current lead over v, one quantum's
// worth. High-surplus tenants are preferred for exactly the rebalancer's
// reason: the wakeup-style re-entry on the thief shard costs them the least.
//
// A stolen tenant is never mid-slice (Running and detached tenants are
// ineligible), so it is on no shard's active list and carries no deadline;
// its next dispatch on the thief shard sets one exactly as any local dispatch
// would, which is how stealing composes with slice enforcement without
// touching it here.
//
// Parked workers re-arm through the victim side: a drain that admits more
// wakeups than its shard has idle workers, or a dispatch that leaves ready
// tenants behind with every local worker busy, raises post.offer, and
// offerSteal signals one idle sibling's workCond off-lock — the woken worker
// finds nothing local, re-enters this path, and pulls the surplus over.
// Without the offers, a worker that parked after a failed steal round would
// sleep through a sibling becoming backlogged; the dispatch-side trigger
// matters for perpetually backlogged tenants, which re-queue from completions
// and never cross the drain's wakeup admission at all.
//
// Disarmed (the default), none of this runs: no sibling probes, no steal
// round, no offers, and per-shard dispatch traces are bit-identical to
// earlier releases, which the golden differential suite pins. The poll of
// the worker's own shard runs either way.

package rt

import (
	"fmt"
	"slices"
)

const (
	// stealMaxVictims bounds how many sibling shards one steal round probes:
	// the argmax victim first, then the next most backlogged, so transient
	// eligibility races (the victim's last ready tenant got dispatched or
	// deported between probe and lock) degrade to the runner-up instead of a
	// park.
	stealMaxVictims = 4
)

// TrySteal attempts one cross-shard steal on behalf of the given worker's
// shard: probe the most backlogged sibling shards by their atomic load
// counts and transfer the highest-surplus ready tenant onto the worker's
// shard. It reports whether a tenant was stolen; a subsequent Dispatch for
// the worker then picks it (or better) up. It is the Manual-mode driver's
// entry point — deterministic given deterministic shard state — and a no-op
// unless Config.Sharding.Steal armed stealing. Concurrent workers call the same
// machinery from their idle path.
func (r *Runtime) TrySteal(worker int) bool {
	if worker < 0 || worker >= len(r.workerShard) {
		panic(fmt.Sprintf("rt: worker %d out of range [0,%d)", worker, len(r.workerShard)))
	}
	if !r.steal || r.closed.Load() {
		return false
	}
	return r.trySteal(r.workerShard[worker])
}

// trySteal runs one bounded steal round for the thief shard: up to
// stealMaxVictims probes, each picking the not-yet-tried sibling with the
// largest atomic nready (ties break to the lowest shard id, keeping Manual
// replays deterministic). The probe is advisory — the count may be stale by
// the time both locks are held — so stealFrom re-validates under the locks
// and a miss falls through to the next most backlogged sibling.
func (r *Runtime) trySteal(thief *shard) bool {
	attempts := len(r.shards) - 1
	if attempts > stealMaxVictims {
		attempts = stealMaxVictims
	}
	var tried [stealMaxVictims]*shard
	for a := 0; a < attempts; a++ {
		var victim *shard
		var load int64
		for _, sh := range r.shards {
			if sh == thief || slices.Contains(tried[:a], sh) {
				continue
			}
			l := sh.nready.Load() // plus an undrained ring, which stealFrom drains
			if sh.drainPending.Load() {
				l++
			}
			if l > load {
				victim, load = sh, l
			}
		}
		if victim == nil {
			return false // no sibling shows ready work
		}
		tried[a] = victim
		if r.stealFrom(victim, thief) {
			return true
		}
	}
	return false
}

// stealFrom transfers the victim's highest-surplus ready tenant to the thief
// under both shard locks (canonical ascending-id order). It returns false
// when the victim's advertised load evaporated — every ready tenant got
// dispatched, deported or unregistered between the lock-free probe and the
// lock acquisition.
func (r *Runtime) stealFrom(victim, thief *shard) bool {
	lockPair(victim, thief)
	now := r.clock.Now()
	postV := postActions{sh: victim}
	postT := postActions{sh: thief}
	// Drain the victim's intake first: ring items predate anything the
	// runnable-set scan below sees, and absorbing them both preserves the
	// per-producer FIFO the transfer's sweep relies on and may surface a
	// fresher (higher-surplus) candidate.
	victim.drainLocked(now, &postV)
	var best *Tenant
	var bestSurplus float64
	for tn := range victim.tenants {
		if !tn.inSched || tn.pinned() {
			continue
		}
		th := tn.th
		surplus := victim.eng.Surplus(th)
		// Highest surplus wins — the re-entry costs it the least (§2.3: the
		// wakeup rule forgives lead, never debt). Ties, and the whole scan
		// under policies that are not Tagged, break to the lowest thread
		// id for deterministic Manual replays.
		if best == nil || surplus > bestSurplus ||
			(surplus == bestSurplus && th.ID < best.th.ID) {
			best, bestSurplus = tn, surplus
		}
	}
	if best == nil {
		unlockPair(victim, thief)
		postV.run(r)
		postT.run(r)
		return false
	}
	// Steal latency: how long the stolen tenant sat ready on the victim —
	// the §1.2 idle-next-to-backlogged window this steal just closed.
	// Recorded on the thief, whose idle capacity ended it.
	if wait := now.Sub(best.readyAt); wait >= 0 {
		thief.stealHist.Record(wait)
	}
	r.transferLocked(best, victim, thief, now, &postV, &postT)
	best.readyAt = now // its wait on the thief starts now
	victim.stolen++
	thief.steals++
	unlockPair(victim, thief)
	postV.run(r)
	postT.run(r)
	return true
}

// offerSteal routes one shard's surplus wakeups to an idle sibling: called
// off-lock by postActions.run when a drain admitted more tenants than the
// shard has parked workers, or when a worker's dispatch left ready tenants
// and no parked local worker (worker.go; on flood, every task), it signals
// the workCond of the first sibling advertising idle workers. Each sibling's
// idlers load carries an explicit nil check that reads the sibling's first
// cache line (TestShardHeaderLineIsConstant). Signaling a sync.Cond without
// holding its mutex is legal; the woken worker re-checks local work under
// its own lock, finds none, and re-enters the steal path with the offering
// shard now the argmax victim. At most one sibling is woken per offer — the
// steal itself moves only one tenant, and the next drain re-offers if
// surplus remains.
func (r *Runtime) offerSteal(sh *shard) {
	for _, sib := range r.shards {
		if sib == sh {
			continue
		}
		if sib.idlers.Load() > 0 {
			sib.workCond.Signal()
			return
		}
	}
}
