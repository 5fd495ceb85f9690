// The submit path: SubmitTask, the lock-free intake push and its doorbell, the
// locked slow path of a full backlog, and the effects deferred past an unlock.

package rt

import (
	"sync/atomic"

	"sfsched/internal/simtime"
)

// SubmitOption modifies one SubmitTask call. Options are plain values (not
// closures), so an option list built at the call site lives on the caller's
// stack and the submit hot path stays allocation-free.
type SubmitOption struct {
	noWait bool
	pre    PreemptibleTask
}

// NoWait makes SubmitTask fail with ErrBackpressure instead of blocking while
// the tenant's backlog is full.
func NoWait() SubmitOption { return SubmitOption{noWait: true} }

// Preemptible submits task as a PreemptibleTask: it receives a SliceCtx and
// is expected to poll Preempted() and yield cooperatively. The Task argument
// of SubmitTask must be nil when this option is given.
func Preemptible(task PreemptibleTask) SubmitOption { return SubmitOption{pre: task} }

// SubmitTask appends a task to the tenant's backlog. By default it blocks
// while the backlog is full and fails with ErrTenantClosed after Unregister
// and ErrRuntimeClosed after Close; NoWait() turns the blocking into an
// ErrBackpressure failure, and Preemptible(fn) submits a cooperative
// preemptible task in place of the plain one (pass task == nil then).
// Exactly one task form must be given: a nil call panics, as does combining
// a plain task with Preemptible.
func (tn *Tenant) SubmitTask(task Task, opts ...SubmitOption) error {
	q := queued{run: task}
	block := true
	for _, o := range opts {
		if o.noWait {
			block = false
		}
		if o.pre != nil {
			q.pre = o.pre
		}
	}
	if q.pre != nil {
		if q.run != nil {
			panic("rt: SubmitTask given both a plain task and Preemptible")
		}
	} else if q.run == nil {
		panic("rt: nil task")
	}
	return tn.submit(q, block)
}

// postActions accumulates work that must run after the shard lock is
// released: worker wakeup signals (moved off the lock so woken workers do
// not immediately block on the mutex the signaler still holds) and the
// registry removal of a tenant finalized by its last Complete (regMu must
// never be taken inside a shard lock). The struct lives on its caller's
// stack; run leaves it reusable.
type postActions struct {
	sh        *shard
	signals   int     // workCond signals owed to sh
	offer     bool    // sh admitted more wakeups than it has idle workers: offer a steal
	finalized *Tenant // tenant finalized under the shard lock, if any
}

func (p *postActions) pending() bool {
	return p.signals > 0 || p.offer || p.finalized != nil
}

func (p *postActions) run(r *Runtime) {
	for ; p.signals > 0; p.signals-- {
		p.sh.workCond.Signal()
	}
	if p.offer {
		p.offer = false
		r.offerSteal(p.sh)
	}
	if p.finalized != nil {
		r.regMu.Lock()
		r.removeTenantLocked(p.finalized)
		r.regMu.Unlock()
		p.finalized = nil
	}
}

// reserve claims one backlog slot against the lock-free backpressure gate
// and counts the task on the shard the tenant is bound to right now (its own
// worker's when a tenant feeds itself), returning that counter for the entry
// to carry, nil when the gate is full. The reservation is released at pop or
// when a closing tenant's item is dropped at absorption, so the counters cover
// ring-resident items and Drain cannot return early past them. The count rises
// before the gate does and is taken back if the gate turns out full:
// CheckInvariants reads a tenant's gate and then a zero sum as proof that no
// reservation was in flight, which needs pending never to show one uncounted.
func (tn *Tenant) reserve() *atomic.Int64 {
	limit := int64(len(tn.buf))
	cnt := &tn.sh.Load().tasks
	cnt.Add(1)
	for {
		p := tn.pending.Load()
		if p >= limit {
			tn.r.retire(cnt)
			return nil
		}
		if tn.pending.CompareAndSwap(p, p+1) {
			return cnt
		}
	}
}

// submit is the lock-free intake fast path: one CAS reservation against the
// backpressure gate, one lock-free push onto the tenant's shard's intake
// ring, and — for the one submitter per burst that wins the doorbell — a
// TryLock of sh.mu. The slow path (enqueueSlow) handles a full backlog; a
// full ring is absorbed under the lock right here.
func (tn *Tenant) submit(q queued, block bool) error {
	r := tn.r
	if r.closed.Load() {
		return ErrRuntimeClosed
	}
	if tn.closingAtomic.Load() {
		return ErrTenantClosed
	}
	at := r.clock.Now()
	if q.cnt = tn.reserve(); q.cnt == nil {
		if !block {
			return ErrBackpressure
		}
		return tn.enqueueSlow(q, at, true)
	}
	for {
		sh := tn.sh.Load()
		ok, moved := sh.intakePush(tn, q, at)
		if moved {
			continue // migrated between shard lookup and slot claim; retry
		}
		if !ok {
			// Ring full: absorb under the lock. Draining first keeps this
			// producer's item behind its own earlier ring items (FIFO). The
			// clock is re-read under the lock: the mutex wait is unbounded,
			// and absorption instants anchor wakeup tags.
			sh := tn.lockShard()
			now := r.clock.Now()
			post := postActions{sh: sh}
			sh.drainLocked(now, &post)
			sh.applyDirectLocked(tn, q, at, now, &post)
			sh.unlock()
			post.run(r)
			return nil
		}
		if r.manual {
			// Manual mode: absorb eagerly so Submit keeps its deterministic
			// effects — the wakeup Add and any preemption flag land at the
			// Submit instant, batch size 1, replaying the pre-intake golden
			// traces bit for bit while still exercising the ring.
			post := postActions{sh: sh}
			sh.mu.Lock()
			sh.drainLocked(r.clock.Now(), &post)
			sh.unlock()
			post.run(r)
			return nil
		}
		if sh.drainPending.CompareAndSwap(false, true) {
			// Doorbell: one submitter per burst acts, the others skip lock and
			// signal, and the winner never sleeps on a lock held for a
			// microsecond. Lock free: with preemption armed and no worker idle
			// it drains inline, so the PR-5 flag is raised at the Submit
			// instant, and otherwise signals — at the submit instant, floored
			// at the shard's last hold: no wait, no second clock read. Lock
			// held: the holder owes the drain when it lets go (shard.unlock,
			// worker) and the flag stays up for it — unless a worker is on its
			// way into workCond.Wait, whose release a Signal without the lock
			// can precede: that one case waits for the lock.
			post := postActions{sh: sh}
			now := at
			if !sh.mu.TryLock() {
				if sh.idlers.Load() > 0 {
					sh.mu.Lock()
					now = r.clock.Now()
				} else {
					return nil
				}
			}
			if r.preempt && sh.eng.Pre != nil && sh.running >= sh.workers {
				sh.drainLocked(max(now, sh.lastNow), &post)
			} else {
				sh.workCond.Signal()
			}
			sh.unlock()
			post.run(r)
		}
		return nil
	}
}

// enqueueSlow is the locked submit path a blocking submit takes when the
// backlog is full: it waits on notFull for a slot with the exact
// closed/closing errors, then absorbs the task under the lock.
func (tn *Tenant) enqueueSlow(q queued, at simtime.Time, block bool) error {
	r := tn.r
	sh := tn.lockShard()
	for {
		if r.closed.Load() {
			sh.unlock()
			return ErrRuntimeClosed
		}
		if tn.closing || tn.gone {
			sh.unlock()
			return ErrTenantClosed
		}
		if q.cnt = tn.reserve(); q.cnt != nil {
			break
		}
		if !block {
			sh.unlock()
			return ErrBackpressure
		}
		// A positive waiter count pins the tenant to this shard, so the
		// condition variable's mutex is still the right one after Wait.
		post := postActions{sh: sh}
		sh.drainLocked(r.clock.Now(), &post) // this hold ends inside Wait, not in unlock
		post.run(r)                          // signals only: legal under the lock
		tn.waiters++
		tn.notFull.Wait()
		tn.waiters--
	}
	// The clock is re-read after the reservation succeeds: a backpressured
	// submitter may have slept in notFull.Wait across many clock advances,
	// and absorbing at the stale pre-wait instant would backdate the wakeup.
	now := r.clock.Now()
	post := postActions{sh: sh}
	sh.drainLocked(now, &post)
	sh.applyDirectLocked(tn, q, at, now, &post)
	sh.unlock()
	post.run(r)
	return nil
}
