// Canonical two-shard lock ordering. Every cross-shard operation that holds
// two shard locks at once — the rebalancer's migrate and the idle-path
// stealFrom — acquires them through lockPair, which totally orders
// acquisitions by ascending shard id so any mix of concurrent pair-holders is
// deadlock-free. The same-shard edge (a == b) degenerates to a single
// acquisition, which is what lets single-shard callers share the helper
// without tracking whether their "pair" is really two shards.

package rt

// lockPair acquires both shard locks in canonical ascending-id order. When a
// and b are the same shard, the lock is taken once.
func lockPair(a, b *shard) {
	if a == b {
		a.mu.Lock()
		return
	}
	if b.id < a.id {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock()
}

// unlockPair releases what lockPair acquired, in reverse (descending-id) order:
// immaterial for correctness, it just keeps lock-tracking tooling happy.
func unlockPair(a, b *shard) {
	if a == b {
		a.unlock()
		return
	}
	if b.id < a.id {
		a, b = b, a
	}
	b.unlock()
	a.unlock()
}

// unlock is how every holder but the worker gives a shard lock up. A submit
// that rang the doorbell during the hold did not wait for the lock: it left
// the flag up and the drain to the holder (submit), so the flag is read again
// after the release and the ring drained under TryLock. Only the wake-up's
// preemption check cannot wait for a worker's next hold, a slice away, so
// only a shard that can raise the flag drains here, and not one with a worker
// parked: that worker is, or is about to be, signalled under the lock. A
// failed TryLock means a later holder, which owes the same; the instant is
// floored as submit's is. Manual mode never rings.
func (sh *shard) unlock() {
	sh.mu.Unlock()
	for sh.drainPending.Load() && sh.idlers.Load() == 0 &&
		sh.r.preempt && sh.eng.Pre != nil && sh.mu.TryLock() {
		post := postActions{sh: sh}
		sh.drainLocked(max(sh.r.clock.Now(), sh.lastNow), &post)
		sh.mu.Unlock()
		post.run(sh.r)
	}
}
