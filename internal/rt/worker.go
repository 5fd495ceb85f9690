package rt

import "runtime"

// reacquireSpins bounds how long a worker back from a task polls a held shard
// lock before it sleeps on it: sync.Mutex gives up after 4×30 PAUSEs, and a
// parked thread is back 90–190 µs later on a KVM guest. On wake (2 vCPUs, 8 s,
// seed 1) 0.1 % of reacquires meet a held lock — the enforcement pass, a poll's
// drain, a submit signalling a parked worker — and plain Lock instead read
// wake's p50 3.94 against 3.81 µs (6 alternating pairs), so the bound stays.
const reacquireSpins = 4096

// idlePollProbes bounds the idle poll (idle, below): how many times an idle
// worker probes its shard off the lock before it steals or parks. The bound
// counts probes, not time, so the poll ends inside a synctest bubble too,
// where no time passes while a goroutine spins. A poll that finds nothing
// lasts 65–80 µs on a 2-vCPU KVM guest (110–130 µs with Steal armed), less
// than the ≈ 100 µs a parked worker takes to come back there, and on wake
// 99.6 % of idle episodes end inside it; 2¹³ and 2¹⁴ probes read a higher
// p50. The poll yields its P every idlePollProbes/32 probes: Go's scheduler
// fires timers, the enforcement ticker's among them, when a P enters it, and
// a poll that never yielded halved wake's enforcement passes.
const idlePollProbes = 1 << 15

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
		replaced := d != nil && d.tn.detached
		if d != nil {
			d.completeLocked(done, now, &post)
			d = nil
		}
		// polled bounds the idle path to one pass per park cycle: after a
		// poll (and steal round) that found nothing, the worker parks until a
		// signal — local work, or a sibling's surplus offer (offerSteal) —
		// re-arms it.
		polled := false
		for {
			if replaced || r.closed.Load() {
				sh.publishReady()
				sh.mu.Unlock()
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
			if !polled {
				// Nothing local: poll off the lock, steal if armed, and let
				// the next iteration re-check local work either way (a stolen
				// tenant sits in this shard's scheduler by then).
				polled = true
				head := sh.intake.head
				sh.mu.Unlock()
				post.run(r)
				r.idle(sh, head)
				sh.mu.Lock()
				now = r.clock.Now()
				continue
			}
			// post owes nothing here: a drain that wakes a tenant, or a
			// completion that leaves one backlogged, leaves it to dispatch.
			// Announce the park, then read the ring again: a submit that met
			// this hold pushed first and read idlers second, so either it saw
			// the announcement and is waiting for the lock to signal under it,
			// or its push is visible here and the hold goes round again.
			sh.idlers.Add(1)
			if sh.intake.beginDrain() == 0 {
				sh.parks++
				sh.workCond.Wait()
				polled = false
			}
			sh.idlers.Add(-1)
			now = r.clock.Now()
		}
		sh.mu.Unlock()
		post.run(r)
		done = r.runTask(d)
	}
}

// idle is the idle loop's off-lock part, run between a hold that found
// nothing to dispatch and the hold that parks. It polls the shard's ring tail
// against head, the ring's consumer position when that hold ended, and the
// shard's nready, returning as soon as either shows local work. With Steal
// armed each probe also reads one sibling's nready, round robin, and a
// sibling with a backlog ends the poll early: a steal never waits for the
// poll to run out. The steal round follows. A polling worker is not in
// idlers, so a submit to its shard meanwhile takes no lock and sends no
// signal.
func (r *Runtime) idle(sh *shard, head uint64) {
	steal, shards, sib := r.steal, r.shards, 0
	for i := 1; i <= idlePollProbes; i++ {
		if sh.intake.tailSnapshot() != head || sh.nready.Load() > 0 {
			return
		}
		if steal {
			if sib++; sib == len(shards) {
				sib = 0
			}
			if shards[sib].nready.Load() > 0 {
				break
			}
		}
		if i%(idlePollProbes/32) == 0 {
			runtime.Gosched()
		}
	}
	if steal && !r.closed.Load() {
		r.trySteal(sh)
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
