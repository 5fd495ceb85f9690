package rt

import "fmt"

// CheckInvariants validates runtime-level bookkeeping — per-shard queue and
// weight accounting, tenant↔shard binding, the global queued count — and,
// where the underlying schedulers support it (internal/core), each shard
// scheduler's own structural invariants. Stress tests call it concurrently
// with traffic; it freezes the whole runtime (registry plus every shard) for
// the duration.
func (r *Runtime) CheckInvariants() error {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	r.lockShards()
	defer r.unlockShards()
	// Absorb pending intake first so ring-resident items are visible as
	// backlog. Every shard lock is held, so no drain races this one; the
	// few worker signals a drain can owe are issued under the lock (this is
	// not a hot path).
	now := r.clock.Now()
	for _, sh := range r.shards {
		post := postActions{sh: sh}
		sh.drainLocked(now, &post)
		for ; post.signals > 0; post.signals-- {
			sh.workCond.Signal()
		}
	}
	// In Manual mode the counters are exact; in concurrent mode lock-free
	// reservations (tn.pending, shard.tasks) can land between the drain above
	// and the reads below without their items being in any backlog yet, so
	// those two checks are one-sided there.
	exact := r.manual
	totalQueued := 0
	registered := make(map[*Tenant]bool, len(r.tenants))
	for _, tn := range r.tenants {
		if !tn.gone {
			registered[tn] = true
		}
	}
	seen := 0
	// gateSlack collects tenants whose lock-free backpressure gate exceeds
	// their absorbed backlog; legitimate only while reservations are in
	// flight, which the quiescence check below rules out.
	var gateSlack []*Tenant
	for _, sh := range r.shards {
		queued, running, ready := 0, 0, 0
		weight := 0.0
		for th, tn := range sh.byThread {
			if tn.th != th || tn.sh.Load() != sh {
				return fmt.Errorf("rt: tenant %s bound to shard %d but indexed on %d",
					th, tn.sh.Load().id, sh.id)
			}
			if !registered[tn] {
				return fmt.Errorf("rt: tenant %s on shard %d missing from the registry", th, sh.id)
			}
			seen++
			queued += tn.n
			weight += th.Weight
			if th.Running() {
				running++
			} else if tn.inSched {
				ready++
			}
			// A tenant is in the runnable set exactly while it has
			// dispatchable work; a running tenant always holds its head task
			// until Complete, and a detached tenant holds it while its
			// closure runs out of band, outside the runnable set.
			if tn.inSched != (tn.n > 0 && !tn.detached) {
				return fmt.Errorf("rt: tenant %s inSched=%v detached=%v with %d queued",
					th, tn.inSched, tn.detached, tn.n)
			}
			if tn.detached && (tn.n == 0 || th.Running()) {
				return fmt.Errorf("rt: tenant %s detached with %d queued, running=%v",
					th, tn.n, th.Running())
			}
			// The backpressure gate covers at least the absorbed backlog;
			// any excess is in-flight reservations (none in Manual mode).
			if p := tn.pending.Load(); p < int64(tn.n) || (exact && p != int64(tn.n)) {
				return fmt.Errorf("rt: tenant %s pending gate %d with %d queued",
					th, p, tn.n)
			} else if p != int64(tn.n) {
				gateSlack = append(gateSlack, tn)
			}
		}
		if queued != sh.queued {
			return fmt.Errorf("rt: shard %d queued counter %d, tenants hold %d",
				sh.id, sh.queued, queued)
		}
		if running != sh.running {
			return fmt.Errorf("rt: shard %d running counter %d, threads show %d",
				sh.id, sh.running, running)
		}
		// nready is the lock-free victim-selection signal thieves read; it is
		// published before the lock hold that changed it is given up, so under
		// this full freeze it must equal the runnable-not-running count.
		if nr := sh.nready.Load(); nr != int64(ready) {
			return fmt.Errorf("rt: shard %d nready counter %d, threads show %d",
				sh.id, nr, ready)
		}
		if c := sh.tasks.Load(); c < 0 {
			return fmt.Errorf("rt: shard %d task counter %d: a retirement went to the wrong shard", sh.id, c)
		}
		if len(sh.active) != sh.running {
			return fmt.Errorf("rt: shard %d running counter %d, active list holds %d",
				sh.id, sh.running, len(sh.active))
		}
		if diff := weight - sh.weight; diff > 1e-6*(1+weight) || diff < -1e-6*(1+weight) {
			return fmt.Errorf("rt: shard %d weight account %g, tenants weigh %g",
				sh.id, sh.weight, weight)
		}
		totalQueued += queued
		if c, ok := sh.eng.Scheduler().(interface{ CheckInvariants() error }); ok {
			if err := c.CheckInvariants(); err != nil {
				return err
			}
		}
	}
	if seen != len(registered) {
		return fmt.Errorf("rt: registry lists %d live tenants, shards hold %d",
			len(registered), seen)
	}
	if g := r.taskSum(); g < int64(totalQueued) || (exact && g != int64(totalQueued)) {
		return fmt.Errorf("rt: shard task counters sum to %d, shards hold %d", g, totalQueued)
	}
	// Exact quiescent-state check, concurrent mode included: retiring a
	// reservation needs a shard lock (all held), so the sum cannot decrease
	// during this freeze, and reading it zero *after* the per-tenant gate
	// reads proves no reservation was in flight while they were taken — any
	// recorded gate slack is then a leaked backpressure reservation, the
	// exact failure the one-sided check above cannot see.
	if r.taskSum() == 0 && len(gateSlack) > 0 {
		tn := gateSlack[0]
		return fmt.Errorf("rt: quiescent but tenant %s pending gate %d with %d queued (leaked reservation)",
			tn.th, tn.pending.Load(), tn.n)
	}
	return nil
}
