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
// not immediately block on the mutex the signaler still holds) and a steal
// offer. The struct lives on its caller's stack; run leaves it reusable.
type postActions struct {
	sh      *shard
	signals int  // workCond signals owed to sh
	offer   bool // sh admitted more wakeups than it has idle workers: offer a steal
}

func (p *postActions) run(r *Runtime) {
	for ; p.signals > 0; p.signals-- {
		p.sh.workCond.Signal()
	}
	if p.offer {
		p.offer = false
		r.offerSteal(p.sh)
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
// ring, and the doorbell CAS. A full backlog or a full ring takes the one
// locked path, enqueueSlow.
func (tn *Tenant) submit(q queued, block bool) error {
	r := tn.r
	if r.closed.Load() {
		return ErrRuntimeClosed
	}
	if tn.closing.Load() {
		return ErrTenantClosed
	}
	at := r.clock.Now()
	if q.cnt = tn.reserve(); q.cnt == nil {
		if !block {
			return ErrBackpressure
		}
		return tn.enqueueSlow(q, at)
	}
	for {
		sh := tn.sh.Load()
		ok, moved := sh.intakePush(tn, q, at)
		if moved {
			continue // migrated between shard lookup and slot claim; retry
		}
		if !ok {
			return tn.enqueueSlow(q, at) // ring full: absorb under the lock
		}
		if r.manual {
			// Manual mode: absorb eagerly so Submit keeps its deterministic
			// effects — the wakeup Add and any preemption flag land at the
			// Submit instant, batch size 1, replaying the pre-intake golden
			// traces bit for bit while still exercising the ring.
			post := postActions{sh: sh}
			sh.mu.Lock()
			sh.drainLocked(r.clock.Now(), &post)
			sh.mu.Unlock()
			post.run(r)
			return nil
		}
		if sh.drainPending.CompareAndSwap(false, true) && sh.idlers.Load() > 0 {
			// Doorbell: one submitter per burst acts, and only to wake a parked
			// worker. The ring belongs to the shard's owners — the worker's
			// next hold, a polling task's Preempted, the enforcement tick —
			// and the flag stays up for them. The signal is sent under the
			// lock: a worker may still be on its way into workCond.Wait, whose
			// release a Signal without the lock can precede.
			sh.mu.Lock()
			sh.workCond.Signal()
			sh.mu.Unlock()
		}
		return nil
	}
}

// enqueueSlow is the one locked submit path: a blocking submit against a full
// backlog, which holds no reservation yet and waits on notFull for one with
// the exact closed/closing errors, and a reserved submit that met a full
// ring. Draining first keeps the item behind its producer's earlier ring
// items (FIFO).
func (tn *Tenant) enqueueSlow(q queued, at simtime.Time) error {
	r := tn.r
	sh := tn.lockShard()
	for q.cnt == nil {
		if r.closed.Load() {
			sh.mu.Unlock()
			return ErrRuntimeClosed
		}
		if tn.closing.Load() {
			sh.mu.Unlock()
			return ErrTenantClosed
		}
		if q.cnt = tn.reserve(); q.cnt != nil {
			break
		}
		// A positive waiter count pins the tenant to this shard, so the
		// condition variable's mutex is still the right one after Wait.
		tn.waiters++
		tn.notFull.Wait()
		tn.waiters--
	}
	// The clock is re-read under the lock: the mutex wait and a
	// backpressured notFull.Wait are unbounded, and absorbing at a stale
	// instant would backdate the wakeup its tags anchor to.
	now := r.clock.Now()
	post := postActions{sh: sh}
	sh.drainLocked(now, &post)
	sh.applyDirectLocked(tn, q, at, now, &post)
	sh.mu.Unlock()
	post.run(r)
	return nil
}
