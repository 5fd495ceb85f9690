package rt

// reacquireSpins bounds how long a worker back from a task polls a held shard
// lock before it sleeps on it: the holder is nearly always a neighbour's inline
// drain, sync.Mutex gives up after 4×30 PAUSEs, and a parked thread is back
// 90–190 µs later on a KVM guest. On wake (2 vCPUs, 8 s, seed 1) 9 % of reacquires
// meet a held lock and 99.7 % of those have it within 4 096 polls of ≈ 1 ns.
const reacquireSpins = 4096

// worker is the pool loop, fused so that completing a slice, draining the
// intake ring and picking the next tenant share one lock acquisition. Tasks
// run outside the lock; a panicking task is recovered, charged, and dropped,
// so one bad handler cannot wedge a worker.
//
// A worker owns one dispatch slot and that slot's lane (shard-local CPU index)
// until an involuntary handoff confiscates both mid-closure: the handoff
// starts a fresh worker on them (detachLocked), and this one, once the closure
// returns, completes the detached record and exits.
func (r *Runtime) worker(slot int) {
	defer r.wg.Done()
	sh := r.workerShard[slot]
	var d *Dispatched
	var done bool
	for {
		post := postActions{sh: sh}
		for i := 0; !sh.mu.TryLock(); i++ {
			if i == reacquireSpins {
				sh.mu.Lock()
				break
			}
		}
		// One clock read per lock hold: the completion charge, the intake
		// drain and the next dispatch below all anchor to this instant. It is
		// re-read after every Wait and every unlock/relock, where unbounded
		// real time may have passed.
		now := r.clock.Now()
		replaced := d != nil && d.detached
		if d != nil {
			d.completeLocked(done, now, &post)
			d = nil
		}
		// triedSteal bounds the idle path to one steal round per park cycle:
		// after a failed round the worker sleeps until a signal — local work,
		// or a sibling's surplus offer (offerSteal) — re-arms it.
		triedSteal := false
		for {
			if replaced || r.closed.Load() {
				// unlock, not Unlock: a replaced worker is no longer one, and
				// owes a doorbell rung during this hold what any holder does.
				sh.publishReady()
				sh.unlock()
				post.run(r)
				return
			}
			sh.drainLocked(now, &post)
			if nd := sh.dispatchLocked(slot, now); nd != nil {
				d = nd
				if post.signals > 0 {
					post.signals-- // this dispatch consumes one owed wakeup
				}
				// Dispatch-side steal offer: this shard still has ready
				// tenants beyond what its (fully busy) workers can take. A
				// perpetually backlogged tenant re-queues from completions
				// and never crosses the drain's wakeup admission, so without
				// this the drain-side offer would never advertise a steady
				// backlog to parked siblings.
				if r.steal && sh.nready.Load() > 0 && sh.idlers.Load() == 0 {
					post.offer = true
				}
				break
			}
			if r.steal && !triedSteal {
				// Idle path: nothing local. Spin briefly off the lock, then
				// try to steal from the most backlogged sibling; either way
				// the next iteration re-checks local work (a successful steal
				// parks the stolen tenant in this shard's scheduler, so the
				// re-check dispatches it).
				triedSteal = true
				sh.mu.Unlock()
				post.run(r)
				r.stealForWorker(sh)
				sh.mu.Lock()
				now = r.clock.Now()
				continue
			}
			if post.pending() {
				// Nothing to dispatch here, but deferred effects are owed
				// (a finalized tenant's registry removal; signals are
				// impossible with no dispatchable tenant). Run them off the
				// lock before sleeping.
				sh.mu.Unlock()
				post.run(r)
				sh.mu.Lock()
				now = r.clock.Now()
				continue
			}
			// Announce the park, then read the ring again: a submit that met
			// this hold pushed first and read idlers second, so either it saw
			// the announcement and is waiting for the lock to signal under it,
			// or its push is visible here and the hold goes round again.
			sh.idlers.Add(1)
			if sh.intake.beginDrain() == 0 {
				sh.workCond.Wait()
				triedSteal = false
			}
			sh.idlers.Add(-1)
			now = r.clock.Now()
		}
		sh.unlock() // mid-slice from here: a doorbell rung during the hold is answered now
		post.run(r)
		done = r.runTask(d)
	}
}

func (r *Runtime) runTask(d *Dispatched) (done bool) {
	defer func() {
		if e := recover(); e != nil {
			r.taskPanics.Add(1)
			d.tn.panics.Add(1) // attribute the panic to the misbehaving tenant
			done = true        // drop the panicking task; the slice is still charged
		}
	}()
	if d.task.pre != nil {
		return d.task.pre(SliceCtx{d: d})
	}
	return d.task.run(d.sl.Quantum)
}
