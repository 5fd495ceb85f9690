// Per-shard MPSC intake ring: the lock-free half of the Submit→wakeup path.
//
// Every submit used to serialize on the shard mutex and pay a
// cond-var signal under it — the last central chokepoint after PRs 3–5
// sharded dispatch itself. The intake ring removes it: submitters publish
// into a bounded multi-producer ring with one CAS (claim) and one atomic
// store (publish), and the shard absorbs the ring in batches under a single
// lock acquisition (shard.drainLocked), so N concurrent wakeups cost one
// lock round-trip and one weight-readjustment pass instead of N of each.
//
// The layout is the classic bounded MPMC sequence ring restricted to one
// consumer: slot i carries a sequence number initialized to i. A producer
// claims position pos by CAS-advancing tail when slots[pos%cap].seq == pos,
// writes the item fields, and publishes with seq = pos+1. The consumer —
// always under the shard lock, so single-threaded — reads tail once
// (beginDrain), consumes slots in position order (spinning out the rare
// claimed-but-unpublished window), and retires each slot with
// seq = pos+cap, handing it to the producer of the next lap. seq < pos at
// claim time means the consumer is a full lap behind: the ring is full and
// the submitter falls back to the locked path.
//
// Memory ordering: Go's sync/atomic operations are sequentially consistent,
// which is what the doorbell (shard.drainPending) and the migration sweep
// (rebalance.go) lean on — see the invariants spelled out at their call
// sites.

package rt

import (
	"runtime"
	"sync/atomic"

	"sfsched/internal/simtime"
)

// intakeCap is the per-shard ring capacity (a power of two). A full ring is
// not an error — submitters overflow onto the locked slow path — so the
// capacity only bounds how much burst the lock-free path absorbs between
// drains.
const (
	intakeCap  = 256
	intakeMask = intakeCap - 1
)

// intakeSlot is one ring entry. tn == nil after publish marks a tombstone: a
// producer that lost the race with a migration (the tenant's shard binding
// changed between claim and publish) voids the slot and retries on the new
// shard, because absorbing the item here would mutate tenant state owned by
// another shard's lock.
type intakeSlot struct {
	seq atomic.Uint64
	tn  *Tenant
	q   queued
	at  simtime.Time // submit instant, for the submit→ready latency stage
}

// intakeRing is the bounded MPSC ring. Producers touch only tail and the
// slots; head is owned by the single consumer, which always runs under the
// shard lock.
type intakeRing struct {
	tail  atomic.Uint64
	head  uint64
	slots [intakeCap]intakeSlot
}

func (rg *intakeRing) init() {
	for i := range rg.slots {
		rg.slots[i].seq.Store(uint64(i))
	}
}

// claim reserves the next producer slot, or reports a full ring. On success
// the caller owns the slot's item fields until it publishes.
func (rg *intakeRing) claim() (*intakeSlot, uint64, bool) {
	for {
		pos := rg.tail.Load()
		slot := &rg.slots[pos&intakeMask]
		seq := slot.seq.Load()
		if seq == pos {
			if rg.tail.CompareAndSwap(pos, pos+1) {
				return slot, pos, true
			}
			continue // lost the claim race; reload tail
		}
		if seq < pos {
			return nil, 0, false // consumer a lap behind: full
		}
		// seq > pos: tail moved under us between the loads; retry.
	}
}

// publish makes a claimed slot visible to the consumer. The item fields must
// be fully written first.
func (rg *intakeRing) publish(slot *intakeSlot, pos uint64) {
	slot.seq.Store(pos + 1)
}

// tailSnapshot reads the producer tail without consuming anything. The idle
// spin (steal.go) watches it to detect arriving local work: tail is the only
// ring field producers advance, and head is consumer-owned (unsafe to read
// off-lock), so "tail moved since the last failed dispatch" is the lock-free
// signal that a drain would now find items.
func (rg *intakeRing) tailSnapshot() uint64 {
	return rg.tail.Load()
}

// beginDrain reads the tail once and returns how many positions (published
// items, tombstones, and still-in-flight claims) the consumer must consume.
// Taking the bound up front keeps one drain from chasing a producer storm
// forever while holding the shard lock.
func (rg *intakeRing) beginDrain() int {
	return int(rg.tail.Load() - rg.head)
}

// consume retires the next position and returns its item (tn == nil for a
// tombstone). A claimed-but-unpublished slot is spun out: the producer is
// between two straight-line atomic ops, so the window is a few instructions
// unless it loses its OS thread, hence the Gosched.
func (rg *intakeRing) consume() (tn *Tenant, q queued, at simtime.Time) {
	pos := rg.head
	slot := &rg.slots[pos&intakeMask]
	for slot.seq.Load() != pos+1 {
		runtime.Gosched()
	}
	tn, q, at = slot.tn, slot.q, slot.at
	slot.tn = nil
	slot.q = queued{}
	slot.seq.Store(pos + intakeCap)
	rg.head = pos + 1
	return tn, q, at
}
