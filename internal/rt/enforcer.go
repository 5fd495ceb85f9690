// Involuntary slice enforcement: the runtime's answer to the §5 divergence
// that cooperative quanta leave — a task that never polls its preemption flag
// (or cannot: a plain Task has no SliceCtx) keeps its processor for as long
// as its closure runs, unboundedly degrading dispatch latency even though
// fairness survives.
//
// With Config.Enforce armed, an enforcement pass — periodic
// (Config.EnforceTick) in concurrent mode, Enforce() in Manual mode — walks
// the shard's in-flight slices (shard.active, never more than the shard has
// workers) and does three things under the shard lock:
//
//  1. Interim charging. When the shard's policy implements
//     sched.InterimCharger, every in-flight slice is charged for the service
//     it received since its last installment, so virtual-time tags are never
//     more than one tick stale. This closes the second §5 divergence: the
//     charge-at-completion model let a long slice hold its tenant's tags at
//     the dispatch-instant values, and wakeup preemption ranked against that
//     stale picture. (The fair policies' tag advance is linear in the charge,
//     so installments compose exactly with the boundary charge — see the
//     InterimCharger contract.)
//
//  2. Deadline expiry. A slice's deadline is its start plus its granted
//     slice; it is due at the first tick boundary at or after that, whatever
//     happened on earlier passes. A due PreemptibleTask slice gets its
//     cooperative preemption flag raised — the task is given the chance to
//     yield at its next checkpoint. A plain Task slice cannot observe the
//     flag, so it is involuntarily handed off (below).
//
//  3. Flag acceleration. A plain Task slice carrying a flag raised earlier by
//     wakeup preemption (preemptBatchLocked) would otherwise wait out its
//     full deadline for no benefit — the task cannot see the flag. Such
//     slices are handed off at the next pass, which is what bounds a woken
//     interactive tenant's dispatch latency by ~2 enforcement ticks even
//     against never-yielding hogs.
//
// An involuntary handoff cannot stop the closure — Go has no goroutine
// preemption — so it does the next best thing: it detaches the slice. The
// uncharged service is settled, the thread leaves the runnable set (its
// tenant is pinned: no re-admission, dispatch, migration or finalization
// until the closure returns), the slice's record is swapped out of its
// dispatch slot, and a fresh worker goroutine is started on the confiscated
// slot and lane (shard-local CPU index). The hog now burns a surplus OS thread
// instead of a scheduled lane; when its closure finally returns, Complete
// charges the post-handoff overrun (docked from the tenant's future
// entitlement — the §2.3 wakeup rule plus the settled tags make this exact),
// records the overrun distribution, and the goroutine that ran it exits: its
// slot and lane are staffed already. A runtime therefore runs Workers
// goroutines plus one per currently detached tenant, and the shard's
// scheduled CPU count stays honest throughout.
//
// Disarmed (the default), no pass runs, charged stays zero and lastCharge
// stays the dispatch start — every dispatch decision and charge is
// bit-identical to the cooperative-only runtime, which the golden differential
// suite pins. DESIGN.md §10 gives the full design.

package rt

import (
	"cmp"
	"slices"
	"time"

	"sfsched/internal/engine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// DefaultEnforceTick is the enforcement granularity when Config.EnforceTick
// is zero: the deadline rounding, the interim-charge period, and the bound
// on tag staleness.
const DefaultEnforceTick = simtime.Millisecond

// deadline is the instant the slice's grant runs out. Enforcement rounds it
// up to a tick boundary (the advertised ≤ one-tick slack), so whether a slice
// is due is a function of (deadline, now) alone.
func (d *Dispatched) deadline() simtime.Time { return d.sl.Start.Add(d.sl.Quantum) }

// enforceLocked runs one enforcement pass on this shard at instant now. See
// the package comment at the top of this file for the three phases.
func (sh *shard) enforceLocked(now simtime.Time) {
	// Phase 1: interim-charge every in-flight slice up to now.
	if sh.eng.Interim != nil {
		for _, d := range sh.active {
			if ran := sh.eng.InterimInstallment(&d.sl, now); ran > 0 {
				sh.service += ran
				sh.interims++
			}
		}
	}
	// Phase 2: deadline expiry, of the slices with ⌈deadline/tick⌉ ≤
	// ⌊now/tick⌋. The due set is collected first (detachLocked swap-removes
	// from active) and ordered by (deadline, thread ID) so Manual-mode
	// enforcement is deterministic whatever order the active list is in.
	tick := int64(sh.r.enforceTick)
	nowIdx := int64(now) / tick
	due := sh.slotScratch[:0]
	for _, d := range sh.active {
		if (int64(d.deadline())+tick-1)/tick <= nowIdx {
			due = append(due, d)
		}
	}
	if len(due) > 1 {
		slices.SortFunc(due, func(a, b *Dispatched) int {
			if c := cmp.Compare(a.deadline(), b.deadline()); c != 0 {
				return c
			}
			return cmp.Compare(a.tn.th.ID, b.tn.th.ID)
		})
	}
	for _, d := range due {
		if d.task.pre != nil {
			// A preemptible task gets the cooperative flag and the chance to
			// yield at its next checkpoint; its early Complete charges exactly
			// what it ran (§2.3 variable-length quanta).
			if !d.preempted.Load() {
				d.preempted.Store(true)
				d.tn.preempts++
				sh.preempts++
				sh.enforceFlags++
			}
		} else {
			sh.detachLocked(d, now)
		}
	}
	sh.slotScratch = due[:0]
	// Phase 3: flag acceleration — hand off every plain Task carrying a flag
	// it cannot see. (detachLocked swap-removes from active, hence the manual
	// index walk.)
	for i := 0; i < len(sh.active); {
		d := sh.active[i]
		if d.task.run != nil && d.preempted.Load() {
			sh.detachLocked(d, now)
			continue
		}
		i++
	}
}

// detachLocked involuntarily hands off an in-flight plain-Task slice: the
// closure keeps running out of band on its current goroutine, but the slice
// loses its lane, its dispatch slot, and its place in the shard's accounting.
// The tenant is pinned to the shard (tn.detached) until the closure returns
// and Complete re-admits it.
func (sh *shard) detachLocked(d *Dispatched, now simtime.Time) {
	r := sh.r
	tn := d.tn
	th := tn.th
	th.CPU = sched.NoCPU
	th.LastCPU = d.local
	sh.running--
	sh.activeRemove(d)
	// Settle the uncharged service so the thread's tags are exact at the
	// instant it leaves the runnable set. Plain Charge is always legal —
	// policies without InterimCharger (time sharing, lottery) are charged
	// here exactly as a voluntary completion would, so deadline handoffs work
	// under every policy.
	if d.sl.Uncharged(now) > 0 {
		sh.service += sh.eng.Settle(&d.sl, now, engine.NoCap)
	}
	mustSched(sh.eng.Depart(th, sched.Blocked, now))
	tn.inSched = false
	tn.detached = true
	d.detached = true
	// The record leaves its dispatch slot so the lane's next dispatch cannot
	// alias the still-running slice; it lives on until its out-of-band
	// Complete.
	r.dslots[d.worker] = sh.newSlotLocked()
	sh.handoffs++
	tn.handoffs++
	r.handoffs.Add(1)
	if !r.manual {
		// Staff the confiscated slot and lane with a fresh worker (in Manual
		// mode the driver just dispatches on the slot again). The goroutine in
		// the closure is counted and needs this lock to exit: Close still waits.
		r.wg.Add(1)
		go r.worker(d.worker)
	}
}

// Enforce runs one enforcement pass over every shard at the current clock
// instant. Manual drivers call it at the cadence their workload model
// dictates (Config.EnforceTick bounds nothing in Manual mode — the driver's
// call spacing does); in concurrent mode the background loop calls it and
// Enforce need not be used. It is a no-op unless Config.Enforce armed the
// machinery, so golden replays that never arm it cannot be perturbed.
func (r *Runtime) Enforce() {
	if !r.enforce || r.closed.Load() {
		return
	}
	now := r.clock.Now()
	for _, sh := range r.shards {
		sh.mu.Lock()
		sh.enforceLocked(now)
		sh.unlock()
	}
}

// enforceLoop is the background enforcement pass (concurrent mode with
// Config.Enforce).
func (r *Runtime) enforceLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.enforceTick.Std())
	defer t.Stop()
	for {
		select {
		case <-r.stopEnforce:
			return
		case <-t.C:
			r.Enforce()
		}
	}
}
