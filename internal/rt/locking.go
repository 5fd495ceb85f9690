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
		a.mu.Unlock()
		return
	}
	if b.id < a.id {
		a, b = b, a
	}
	b.mu.Unlock()
	a.mu.Unlock()
}
