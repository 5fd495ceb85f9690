// shard is one dispatch partition of the runtime: a private scheduler, a
// private lock, and a contiguous block of the worker pool. With
// Config.Sharding.Shards ≤ 1
// the single shard *is* the paper's central run queue; with more, each shard
// schedules its own tenants independently and the rebalancer (rebalance.go)
// keeps the per-shard weight sums proportional to the per-shard processor
// counts so the partitioned schedule tracks the single-queue one.
//
// A shard never names a concrete policy type: it hosts an engine.Engine
// wrapped around the policy, and every scheduling decision — admit, pick,
// slice start, interim charge, settlement, departure — routes through that
// engine, which also exposes the policy's optional capability views (VT,
// Lag, Frame, Pre), nil when the policy does not provide them.

package rt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sfsched/internal/engine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

type shard struct {
	// The first cache line holds only fields New writes once.
	// A shard is larger than 4 096 bytes, so the compiler guards a far field's
	// access (idlers, nready, intake, tasks, drainPending) with an explicit
	// nil check that loads byte 0: a sibling's probe reads this line, and a
	// lock word here would bounce it between cores every task
	// (TestShardHeaderLineIsConstant).
	r           *Runtime
	id          int
	workers     int // processors owned by this shard
	firstWorker int // global index of the shard's first worker (contiguous block)
	// eng is the shared decision core (internal/engine) wrapped around this
	// shard's private policy instance: the same pick/charge/preempt/migrate
	// code the simulated machine drives, here driven by the wall clock.
	eng      *engine.Engine
	workCond *sync.Cond
	// tenants is the set of tenants bound here; the runtime's live tenants
	// are the union of these sets. A picked thread names its tenant
	// (sched.Thread.Owner), so dispatch never looks one up.
	tenants map[*Tenant]struct{}
	_       [8]byte // fills the line: mu starts at byte 64

	// mu serializes all scheduling on this shard — the per-shard equivalent
	// of the kernel run-queue lock. It guards every field below and every
	// mutable field of the tenants currently assigned here.
	mu       sync.Mutex
	weight   float64          // Σ tenant weights: the shard's sub-share of the machine
	ready    int64            // unpublished nready change of this lock hold
	service  simtime.Duration // total time charged on this shard (survives migrations)
	preempts int64            // preemption flags raised on this shard's slices
	waitHist latencyHist
	wakeHist latencyHist
	// intakeHist is the submit→ready stage: how long an accepted submission
	// sat in the intake ring before the drain absorbed it into the backlog.
	intakeHist latencyHist

	// active lists the in-flight slices, never more than the shard has
	// workers — the preemption scan and every phase of the enforcement pass
	// (enforcer.go) iterate it instead of a worker-index range, and its
	// length is the shard's busy-worker count. dfree pools the records of
	// handed-off slices.
	active       []*Dispatched
	dfree        []*Dispatched
	handoffs     int64 // involuntary handoffs performed on this shard
	enforceFlags int64 // preemption flags raised by slice expiry (vs wakeups)
	interims     int64 // interim-charge installments applied
	// overrunHist records, at each handed-off slice's final completion, how
	// far past its granted slice the task ran — the enforcement-latency
	// histogram stage.
	overrunHist latencyHist

	// Work stealing (steal.go). nready is the atomic per-shard load count
	// thieves pick victims by: the number of runnable-not-running tenants,
	// read lock-free and published by the lock holder — at once, except that
	// completeLocked accumulates in ready (off this line: it is written
	// every task) and the hold's dispatchLocked, or else its exit,
	// publishes the net change, so completing a backlogged tenant and
	// dispatching the next, +1 −1, writes nothing to the line thieves poll.
	// idlers counts workers parked on workCond, read lock-free by
	// offerSteal to route surplus wakeups to an idle sibling. steals/stolen
	// count this shard's thefts as thief and victim; stealHist records, at
	// each steal, how long the stolen tenant had been ready on the victim —
	// the imbalance window stealing closed.
	nready    atomic.Int64
	idlers    atomic.Int64
	steals    int64 // steals performed by this shard's idle workers (shard lock)
	stolen    int64 // tenants stolen from this shard (shard lock)
	parks     int64 // times a worker of this shard waited on workCond (shard lock)
	stealHist latencyHist

	// intake is the lock-free submit path (intake.go); drainPending is its
	// doorbell: set by the first push after a drain, which signals a parked
	// worker if there is one, and cleared (if up) by drainLocked before it
	// reads the tail, so every push strictly after the clear is covered by a
	// later doorbell win. The shard's own side answers it.
	intake       intakeRing
	drainPending atomic.Bool
	// lastNow is the latest instant a drain or a completion ran at here: the
	// floor for a poll's and the enforcement pass's drains.
	lastNow simtime.Time
	// tasks counts the accepted, unretired tasks reserved while their tenant
	// was bound here (Tenant.reserve, queued.cnt): a self-feeding tenant's
	// whole traffic on it is this shard's worker's, hence a line of its own.
	_     [64]byte
	tasks atomic.Int64
	_     [56]byte

	// Drain scratch, preallocated to the ring capacity (woke) and the worker
	// count (rank/slot; slot also holds a pass's due set) so neither the
	// drain side nor the enforcer allocates.
	wokeScratch []*sched.Thread
	rankScratch []float64
	slotScratch []*Dispatched
}

// intakePush publishes one accepted submission (reservation already taken)
// onto this shard's ring. moved reports the migration race: the tenant's
// shard binding changed between the caller's shard lookup and the slot
// claim, so the slot was published as a tombstone and the caller must retry
// against the tenant's current shard. The recheck sits *between* claim and
// publish: a producer that claims after the migration sweep's tail read is
// guaranteed (by the seq-cst total order on tail) to observe the new
// binding here, which is what makes the sweep see every real item that
// could name the old shard.
func (sh *shard) intakePush(tn *Tenant, q queued, at simtime.Time) (ok, moved bool) {
	slot, pos, ok := sh.intake.claim()
	if !ok {
		return false, false
	}
	slot.tn, slot.q, slot.at = tn, q, at
	if tn.sh.Load() != sh {
		slot.tn = nil
		slot.q = queued{}
		sh.intake.publish(slot, pos)
		return false, true
	}
	sh.intake.publish(slot, pos)
	return true, false
}

// drainLocked absorbs the intake ring into tenant backlogs in one batch:
// the tail is read once, every item is applied (or dropped, for tenants that
// closed after acceptance), and the newly woken tenants are admitted to the
// scheduler together — one weight-readjustment pass via sched.BatchAdder
// when the policy has it — with the PR-5 preemption check run batch-wide at
// the end. Worker wakeup signals are deferred to post (issued after the
// shard lock is released). now is the caller's cached clock read for this
// lock hold: every helper fused under one acquisition (complete, drain,
// dispatch) shares one instant instead of re-reading the clock per stage.
func (sh *shard) drainLocked(now simtime.Time, post *postActions) {
	// Clear the doorbell before reading the tail: a push that misses this
	// drain's tail read necessarily CASes drainPending after this load, so
	// it wins the doorbell and a follow-up drain covers it. A flag read down
	// needs no store (a full fence) to put it down.
	if sh.drainPending.Load() {
		sh.drainPending.Store(false)
	}
	sh.lastNow = max(sh.lastNow, now)
	n := sh.intake.beginDrain()
	if n == 0 {
		return
	}
	woke := sh.wokeScratch[:0]
	for i := 0; i < n; i++ {
		tn, q, at := sh.intake.consume()
		if tn == nil {
			continue // tombstone: the producer retried on another shard
		}
		if tn.sh.Load() != sh {
			// The migration sweep (rebalance.go) absorbs all items of a
			// moving tenant under both locks; a foreign item surviving to a
			// normal drain means that protocol broke.
			panic("rt: intake item for a tenant bound to another shard")
		}
		if sh.absorbLocked(tn, q, at, now) {
			woke = append(woke, tn.th)
		}
	}
	if len(woke) > 0 {
		// Manual-mode drains are batches of one by construction, and a batch
		// of one is the plain Add and the single-wakeup preemption check: the
		// pre-intake golden traces replay bit for bit.
		sh.admitBatchLocked(woke, now, post)
	}
	if sh.r.steal && int64(len(woke)) > sh.idlers.Load() {
		// More wakeups than this shard has parked workers: the surplus would
		// wait out the next local slice boundary. Offer it to an idle sibling
		// (post-lock, steal.go), whose thief re-arms and pulls it over —
		// without this, a worker that parked after a failed steal round never
		// learns a sibling became backlogged.
		post.offer = true
	}
	sh.wokeScratch = woke[:0]
}

// absorbLocked moves one accepted submission into the tenant's backlog. The
// backpressure reservation (tn.pending, q.cnt) was taken at submit time;
// dropped items for closing tenants release it here instead. It reports
// whether the item woke the tenant (empty backlog before, so the tenant must
// be admitted to the runnable set).
func (sh *shard) absorbLocked(tn *Tenant, q queued, at, now simtime.Time) bool {
	if tn.closing.Load() {
		// Accepted before the tenant closed, dropped at absorption — the
		// same fate Unregister deals any backlogged task.
		tn.pending.Add(-1)
		sh.r.retire(q.cnt)
		return false
	}
	tn.buf[(tn.head+tn.n)%len(tn.buf)] = q
	tn.n++
	if lat := now.Sub(at); lat >= 0 {
		sh.intakeHist.Record(lat)
	}
	if tn.inSched || tn.wokePending || tn.detached {
		// Already runnable — or already woken by an earlier item of this
		// same drain batch (inSched is set only when the batch is admitted,
		// so wokePending is the within-batch wake marker: outside a batch a
		// woken tenant is always still inSched until dispatched). A detached
		// tenant is busy out of band: re-admitting it would let the shard
		// dispatch the very task that is still executing, so the wakeup is
		// deferred to the detached slice's Complete.
		return false
	}
	// Wakeup: S_i = max(F_i, v) via the scheduler's Add rule, applied by
	// admitBatchLocked once the batch is collected.
	tn.th.State = sched.Runnable
	tn.readyAt = now
	tn.wokeAt = now
	tn.wokePending = true
	return true
}

// admitBatchLocked admits the woken threads of one drain at one instant: one
// AddBatch (one readjustment pass) when the policy implements
// sched.BatchAdder, plain Adds otherwise, then one batch-wide preemption pass;
// each owes a worker wakeup.
func (sh *shard) admitBatchLocked(woke []*sched.Thread, now simtime.Time, post *postActions) {
	mustSched(sh.eng.AdmitBatch(woke, now))
	for _, th := range woke {
		th.Owner.(*Tenant).inSched = true
	}
	sh.nready.Add(int64(len(woke)))
	post.signals += len(woke)
	sh.preemptBatchLocked(woke, now)
}

// applyDirectLocked absorbs one already-reserved submission bypassing the
// ring: the locked fallback paths (ring overflow, backpressure waiters) and
// the migration sweep land here. Callers that care about per-producer FIFO
// drain the ring first, so earlier ring items from the same producer are
// absorbed before this one.
func (sh *shard) applyDirectLocked(tn *Tenant, q queued, at, now simtime.Time, post *postActions) {
	if sh.absorbLocked(tn, q, at, now) {
		sh.admitBatchLocked(append(sh.wokeScratch[:0], tn.th), now, post)
	}
}

// dispatchLocked picks the next tenant for the given worker (global index;
// its lane is that index's shard-local CPU) and marks it running. The
// returned Dispatched is the worker's reusable slot — every worker index has
// at most one dispatch in flight (the Dispatch contract), so the hot path
// allocates nothing. now is the caller's cached clock read for this lock hold.
func (sh *shard) dispatchLocked(worker int, now simtime.Time) *Dispatched {
	local := worker - sh.firstWorker
	th, err := sh.eng.Pick(local, now)
	if err != nil {
		panic(fmt.Errorf("rt: %w", err))
	}
	if th == nil {
		sh.publishReady()
		return nil
	}
	tn, _ := th.Owner.(*Tenant)
	if tn == nil || tn.n == 0 || tn.sh.Load() != sh {
		panic(fmt.Errorf("rt: %w: %v with no queued work on shard %d", engine.ErrUnknownThread, th, sh.id))
	}
	sh.ready-- // cancels completeLocked's +1 when that tenant stayed backlogged
	sh.publishReady()
	// Latency accounting: ready→dispatch on every dispatch, wakeup→first
	// dispatch when a wakeup Submit is still pending its dispatch. Both are
	// bare histogram increments, keeping the hot path allocation-free: a
	// metrics.Histogram allocates only once, at its first wait ≥ 131 ms.
	if lat := now.Sub(tn.readyAt); lat >= 0 {
		tn.waitHist.Record(lat)
		sh.waitHist.Record(lat)
	}
	if tn.wokePending {
		tn.wokePending = false
		if lat := now.Sub(tn.wokeAt); lat >= 0 {
			tn.wakeHist.Record(lat)
			sh.wakeHist.Record(lat)
		}
	}
	if tn.headStarted {
		tn.resumes++ // continuing an unfinished (possibly preempted) task
	} else {
		tn.headStarted = true
	}
	d := sh.r.dslots[worker]
	if d.inFlight {
		panic(fmt.Sprintf("rt: worker %d dispatched with a slice already in flight", worker))
	}
	// Field-by-field reset (the record embeds an atomic flag, so no struct
	// assignment). The preemption flag starts clean; any flag raised against
	// the slot's previous occupant dies with that slice.
	d.r = sh.r
	d.sh = sh
	d.tn = tn
	d.worker = worker
	d.local = local
	if err := sh.eng.Begin(&d.sl, th, local, now, now); err != nil {
		panic(fmt.Errorf("rt: %w", err))
	}
	d.task = tn.buf[tn.head]
	d.inFlight = true
	if d.preempted.Load() {
		// Only lock holders iterating sh.active raise the flag, and a
		// completed record has left it, so a flag read down stays down.
		d.preempted.Store(false)
	}
	d.activeIdx = len(sh.active)
	sh.active = append(sh.active, d)
	return d
}

// activeRemove unlinks an in-flight slice from the shard's active list
// (swap-remove; order is not meaningful, scans use explicit tie-breaks).
func (sh *shard) activeRemove(d *Dispatched) {
	last := len(sh.active) - 1
	moved := sh.active[last]
	sh.active[d.activeIdx] = moved
	moved.activeIdx = d.activeIdx
	sh.active = sh.active[:last]
}

// newSlotLocked produces a fresh (or pooled) record for a slot whose
// occupant was detached by a handoff.
func (sh *shard) newSlotLocked() *Dispatched {
	if n := len(sh.dfree); n > 0 {
		d := sh.dfree[n-1]
		sh.dfree = sh.dfree[:n-1]
		return d
	}
	return &Dispatched{}
}

// preemptBatchLocked implements wakeup preemption (shard lock held) for the
// tenants one drain woke: when a newly woken tenant out-ranks the worst-ranked
// running slice under the policy's own sched.Tagged ordering — both sides
// projected to "right now", the running side by its uncharged in-flight
// service (with enforcement armed, interim installments have already advanced
// the tags up to the last charge; disarmed, that is the dispatch start) — the
// runtime raises the cooperative preemption flag on that slice. A cooperating
// task yields at its next checkpoint, its Complete charges exactly what it ran
// (SFS is built for variable-length quanta, §2.3, so the early stop never
// perturbs fairness), and the freed worker's next pick lands on the woken
// tenant, which holds the shard's minimum rank. Nothing happens when a worker
// is idle (the wakeup is absorbed without preempting), when the policy has no
// preemption order (time sharing, lottery), or when preemption is disabled.
//
// The running slices are ranked once into shard scratch, already flagged ones
// excluded (a preemption is pending there); then each woken tenant, in intake
// FIFO order — the order sequential Submits would have been applied in —
// claims the worst-ranked remaining slice it out-ranks. Ties break toward the
// lowest worker slot: the active list is in dispatch order, which differs
// from slot order under handoffs.
func (sh *shard) preemptBatchLocked(woke []*sched.Thread, now simtime.Time) {
	if !sh.r.preempt || sh.eng.Tag == nil || len(sh.active) < sh.workers {
		return
	}
	ranks := sh.rankScratch[:0]
	slots := sh.slotScratch[:0]
	for _, d := range sh.active {
		if d.preempted.Load() {
			continue
		}
		ranks = append(ranks, sh.eng.RankRunning(&d.sl, now))
		slots = append(slots, d)
	}
	for _, th := range woke {
		if len(slots) == 0 {
			break
		}
		worst := 0
		for i := 1; i < len(slots); i++ {
			if ranks[i] > ranks[worst] ||
				(ranks[i] == ranks[worst] && slots[i].worker < slots[worst].worker) {
				worst = i
			}
		}
		if sh.eng.RankWoken(th) >= ranks[worst] {
			continue
		}
		victim := slots[worst]
		victim.preempted.Store(true)
		victim.tn.preempts++
		sh.preempts++
		last := len(slots) - 1
		slots[worst], ranks[worst] = slots[last], ranks[last]
		slots, ranks = slots[:last], ranks[:last]
	}
	sh.rankScratch, sh.slotScratch = ranks[:0], slots[:0]
}

// dropBacklogLocked discards a closing tenant's pending tasks, including an
// unfinished continuation at the head.
func (sh *shard) dropBacklogLocked(tn *Tenant) {
	for tn.n > 0 {
		tn.pop()
	}
}

// publishReady flushes the hold's accumulated nready change: dispatchLocked
// calls it, and so must every Unlock or Wait a completeLocked reaches first.
func (sh *shard) publishReady() {
	if sh.ready != 0 {
		sh.nready.Add(sh.ready)
		sh.ready = 0
	}
}

// finalizeLocked detaches a fully-unregistered tenant from the shard, which
// unregisters it: the shard sets are the runtime's only tenant registry.
func (sh *shard) finalizeLocked(tn *Tenant) {
	delete(sh.tenants, tn)
	sh.weight -= tn.th.Weight
}
