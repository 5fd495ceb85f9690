// Involuntary slice enforcement: the runtime's answer to the §5 divergence
// that cooperative quanta leave — a task that never polls its preemption flag
// (or cannot: a plain Task has no SliceCtx) keeps its processor for as long
// as its closure runs, unboundedly degrading dispatch latency even though
// fairness survives.
//
// With Config.Enforce armed, every dispatch is registered on its shard's
// hashed timer wheel with deadline start+slice, and an enforcement pass —
// periodic (Config.EnforceTick) in concurrent mode, Enforce() in Manual
// mode — does three things under the shard lock:
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
//  2. Deadline expiry. Slices whose deadline passed are pulled off the wheel.
//     A PreemptibleTask slice gets its cooperative preemption flag raised —
//     the task is given the chance to yield at its next checkpoint. A plain
//     Task slice cannot observe the flag, so it is involuntarily handed off
//     (below).
//
//  3. Flag acceleration. A plain Task slice carrying a flag raised earlier by
//     wakeup preemption (maybePreemptLocked) would otherwise wait out its
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
// dispatch slot, and the confiscated lane (shard-local CPU index) is pushed
// onto the shard's free-lane stack where a parked spare worker picks it up.
// The hog now burns a surplus OS thread instead of a scheduled lane; when its
// closure finally returns, Complete charges the post-handoff overrun (docked
// from the tenant's future entitlement — the §2.3 wakeup rule plus the
// settled tags make this exact), records the overrun distribution, and the
// ex-worker goroutine rejoins the pool laneless. Lanes and goroutines pair
// anonymously, so no reclaim handshake is needed and the shard's scheduled
// CPU count stays honest throughout.
//
// Disarmed (the default), no wheel is armed, no pass runs, charged stays
// zero and lastCharge stays the dispatch start — every dispatch decision and
// charge is bit-identical to the cooperative-only runtime, which the golden
// differential suite pins. DESIGN.md §10 gives the full design.

package rt

import (
	"sort"
	"time"

	"sfsched/internal/engine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// DefaultEnforceTick is the enforcement granularity when Config.EnforceTick
// is zero: the timer-wheel tick, the interim-charge period, and the bound on
// tag staleness.
const DefaultEnforceTick = simtime.Millisecond

// wheelBuckets is the hashed timer wheel's bucket count. Slices due many
// rotations out share buckets with near ones; the per-entry deadline check on
// expiry keeps them apart, and with at most workers+spares entries per shard
// the buckets stay shallow.
const wheelBuckets = 64

// timerWheel is a hashed timer wheel over the shard's in-flight slices,
// intrusively linked through Dispatched.wheelNext/wheelPrev. All operations
// run under the shard lock.
type timerWheel struct {
	buckets [wheelBuckets]*Dispatched
	// cursor is the last tick index whose bucket has been scanned; expire
	// covers (cursor, floor(now/tick)] so each boundary is scanned exactly
	// once however irregular the passes.
	cursor int64
	tick   simtime.Duration
	count  int
}

// wheelIdx maps a deadline to its enforcement boundary: the first tick index
// at or after it. Enforcement therefore rounds deadlines up to tick
// boundaries, which is the advertised ≤ one-tick slack.
func wheelIdx(deadline simtime.Time, tick simtime.Duration) int64 {
	return (int64(deadline) + int64(tick) - 1) / int64(tick)
}

// arm registers an in-flight slice with the given deadline. The deadline is
// strictly in the future at arm time, so its boundary is strictly beyond the
// cursor and cannot be missed.
func (w *timerWheel) arm(d *Dispatched, deadline simtime.Time, tick simtime.Duration) {
	w.tick = tick
	d.deadline = deadline
	d.armed = true
	b := int(wheelIdx(deadline, tick) % wheelBuckets)
	head := w.buckets[b]
	d.wheelPrev = nil
	d.wheelNext = head
	if head != nil {
		head.wheelPrev = d
	}
	w.buckets[b] = d
	w.count++
}

// remove unlinks a still-armed slice (voluntary completion, or a handoff
// accelerated ahead of its deadline).
func (w *timerWheel) remove(d *Dispatched) {
	if d.wheelPrev != nil {
		d.wheelPrev.wheelNext = d.wheelNext
	} else {
		w.buckets[wheelIdx(d.deadline, w.tick)%wheelBuckets] = d.wheelNext
	}
	if d.wheelNext != nil {
		d.wheelNext.wheelPrev = d.wheelPrev
	}
	d.wheelNext, d.wheelPrev = nil, nil
	d.armed = false
	w.count--
}

// expire unlinks every slice whose enforcement boundary is at or before now,
// appending them to due. Entries hashed into a scanned bucket from a later
// wheel rotation fail the boundary check and stay linked.
func (w *timerWheel) expire(now simtime.Time, due []*Dispatched) []*Dispatched {
	nowIdx := int64(now) / int64(w.tick)
	if nowIdx <= w.cursor {
		return due
	}
	if w.count == 0 {
		w.cursor = nowIdx
		return due
	}
	span := nowIdx - w.cursor
	if span > wheelBuckets {
		span = wheelBuckets // one full rotation covers every bucket
	}
	for i := int64(1); i <= span; i++ {
		b := int((w.cursor + i) % wheelBuckets)
		for d := w.buckets[b]; d != nil; {
			next := d.wheelNext
			if wheelIdx(d.deadline, w.tick) <= nowIdx {
				w.remove(d)
				due = append(due, d)
			}
			d = next
		}
	}
	w.cursor = nowIdx
	return due
}

// enforceLocked runs one enforcement pass on this shard at instant now. See
// the package comment at the top of this file for the three phases.
func (sh *shard) enforceLocked(now simtime.Time, post *postActions) {
	// Phase 1: interim-charge every in-flight slice up to now, bounding tag
	// staleness to one pass period.
	if sh.eng.Interim != nil {
		for _, d := range sh.active {
			if ran := sh.eng.InterimInstallment(&d.sl, now); ran > 0 {
				sh.service += ran
				sh.interims++
			}
		}
	}
	// Phase 2: deadline expiry. The due set is ordered by (deadline, thread
	// ID) so Manual-mode enforcement is deterministic regardless of bucket
	// hashing and list order.
	due := sh.wheel.expire(now, sh.dueScratch[:0])
	if len(due) > 1 {
		sort.Slice(due, func(i, j int) bool {
			if due[i].deadline != due[j].deadline {
				return due[i].deadline < due[j].deadline
			}
			return due[i].tn.th.ID < due[j].tn.th.ID
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
			sh.detachLocked(d, now, post)
		}
	}
	sh.dueScratch = due[:0]
	// Phase 3: flag acceleration — a plain Task cannot observe a flag raised
	// by wakeup preemption, so waiting out its deadline buys nothing; hand it
	// off now. (detachLocked swap-removes from active, hence the manual
	// index walk.)
	for i := 0; i < len(sh.active); {
		d := sh.active[i]
		if d.task.run != nil && d.preempted.Load() {
			sh.detachLocked(d, now, post)
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
func (sh *shard) detachLocked(d *Dispatched, now simtime.Time, post *postActions) {
	r := sh.r
	tn := d.tn
	th := tn.th
	th.CPU = sched.NoCPU
	th.LastCPU = d.local
	sh.running--
	sh.activeRemove(d)
	if d.armed {
		sh.wheel.remove(d)
	}
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
		// Lend the confiscated lane to a parked spare. In Manual mode the
		// driver owns all dispatching and the freed slot is simply
		// dispatchable again.
		sh.lanes = append(sh.lanes, d.local)
		post.spareSignals++
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
		post := postActions{sh: sh}
		sh.mu.Lock()
		sh.enforceLocked(now, &post)
		sh.unlock()
		post.run(r)
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
