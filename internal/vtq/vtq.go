// Package vtq is the GPS-tag kernel: the one virtual-time queue that
// internal/sfq, internal/bvt and internal/stride are parameterisations of.
//
// The paper's §1.2 treats start-time fair queueing, borrowed virtual time and
// stride scheduling as one family. Each keeps a per-thread virtual-time tag,
// advances it by ran/φ when the thread runs, brings a (re)joining thread's tag
// up to the virtual time v = min tag so sleepers bank no credit, always runs
// the thread with the least tag — and breaks on infeasible weights for the
// same reason. This package is that algorithm written once, with the φ
// tracker that makes weight readjustment an option on all three and every
// sched capability. A Policy supplies only what differs: which sched.Thread
// field holds the tag, the queue order with its tie-break, and the tag unit.
// With no warp in the runnable set BVT executes SFQ's code path, the paper's
// "BVT reduces to SFQ" taken literally. See DESIGN.md §1.
package vtq

import (
	"fmt"
	"math"

	"sfsched/internal/readjust"
	"sfsched/internal/runqueue"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// Policy is what differs between the GPS-tag schedulers.
type Policy struct {
	// Name is the scheduler's name; "+readjust" is appended under
	// WithReadjustment.
	Name string
	// Tag returns the tag the queue orders by and a charge advances. Rest
	// returns the tag a thread keeps while outside the runnable set, which
	// the join rule and frame translation read; it is the same field for
	// BVT (A_i) and stride (pass), and SFQ's finish tag beside its start tag.
	Tag, Rest func(*sched.Thread) *float64
	// Before is the run-queue order: ascending Tag — less Thread.Warp when
	// Warped — then the policy's tie-break down to the thread ID.
	Before func(a, b *sched.Thread) bool
	// Warped says Before subtracts Thread.Warp, so the head of the queue
	// need not carry the minimum tag and preemption ranks include the warp.
	Warped bool
	// Advance returns how far ran of service moves t's tag, in the policy's
	// tag unit: ran/φ seconds when nil.
	Advance func(t *sched.Thread, ran, quantum simtime.Duration) float64
	// OnPhi, when set, runs after every assignment of t's φ, for a policy
	// that caches something derived from it.
	OnPhi func(*sched.Thread)
}

// Queue is a GPS-tag scheduler for p processors. Not safe for concurrent
// use.
type Queue struct {
	pol     Policy
	p       int
	quantum simtime.Duration
	weights *readjust.Tracker
	run     *runqueue.Heap[*sched.Thread]
	v       float64 // virtual time: the minimum tag over the runnable set
	last    float64 // tag the latest charge left: v of an idle queue
	warped  bool    // some runnable thread may carry a warp Before subtracts

	picks []*sched.Thread // Pick's scratch: the first p+1 in queue order
}

// Option configures a Queue.
type Option func(*Queue)

// WithQuantum sets the maximum quantum granted per dispatch.
func WithQuantum(d simtime.Duration) Option { return func(q *Queue) { q.quantum = d } }

// WithReadjustment couples the scheduler with the paper's weight
// readjustment algorithm (§2.1); tags then advance by ran/φ_i instead of
// ran/w_i.
func WithReadjustment() Option { return func(q *Queue) { q.weights = readjust.NewTracker(q.p, true) } }

// New returns pol's scheduler for p processors. It panics if p < 1.
func New(p int, pol Policy, opts ...Option) *Queue {
	if p < 1 {
		panic(fmt.Sprintf("%s: invalid processor count %d", pol.Name, p))
	}
	if pol.Advance == nil {
		pol.Advance = func(t *sched.Thread, ran, _ simtime.Duration) float64 { return ran.Seconds() / t.Phi }
	}
	q := &Queue{pol: pol, p: p, quantum: sched.DefaultQuantum, weights: readjust.NewTracker(p, false),
		run: runqueue.NewHeap(runqueue.SlotPrimary, pol.Before)}
	for _, opt := range opts {
		opt(q)
	}
	if pol.OnPhi != nil {
		q.weights.OnPhiChange(pol.OnPhi)
	}
	return q
}

// Queue implements the full capability set the sharded runtime can exploit.
var (
	_ sched.Scheduler = (*Queue)(nil)
	_ sched.Tagged    = (*Queue)(nil)
)

// Name implements sched.Scheduler.
func (q *Queue) Name() string {
	if q.weights.Enabled() {
		return q.pol.Name + "+readjust"
	}
	return q.pol.Name
}

// NumCPU implements sched.Scheduler.
func (q *Queue) NumCPU() int { return q.p }

// Runnable implements sched.Scheduler.
func (q *Queue) Runnable() int { return q.run.Len() }

// Threads returns the runnable threads in queue order.
func (q *Queue) Threads() []*sched.Thread { return q.run.AppendKSmallest(nil, q.run.Len()) }

// Timeslice implements sched.Scheduler.
func (q *Queue) Timeslice(t *sched.Thread, now simtime.Time) simtime.Duration { return q.quantum }

// warp is the part of t's warp the policy's order takes off its tag.
func (q *Queue) warp(t *sched.Thread) float64 {
	if q.pol.Warped {
		return t.Warp
	}
	return 0
}

// VirtualTime implements sched.Tagged: the minimum tag over the
// runnable set (SFQ's v, BVT's scheduler virtual time, stride's global pass).
func (q *Queue) VirtualTime() float64 { return q.v }

// FreshSurplus implements sched.Tagged with the SFS surplus analogue
// φ_i·(tag_i − v): how far ahead of the proportional ideal the thread sits.
// A warp is a latency advantage, not banked service, and stays out of it.
func (q *Queue) FreshSurplus(t *sched.Thread) float64 { return t.Phi * (*q.pol.Tag(t) - q.v) }

// FrameLead implements sched.Tagged: the lead of t's resting tag
// over the virtual time.
func (q *Queue) FrameLead(t *sched.Thread) float64 { return *q.pol.Rest(t) - q.v }

// SetFrameLead implements sched.Tagged: re-bases t's resting tag to
// sit lead ahead of this instance's virtual time, so the join rule re-admits
// a migrated thread at its old relative position.
func (q *Queue) SetFrameLead(t *sched.Thread, lead float64) { *q.pol.Rest(t) = q.v + lead }

// Add implements sched.Scheduler with the join rule tag = max(resting tag,
// v): an arrival starts at the virtual time, a wakeup no earlier than it.
func (q *Queue) Add(t *sched.Thread, now simtime.Time) error {
	if !sched.ValidWeight(t.Weight) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, t.Weight)
	}
	if q.run.Contains(t) {
		return fmt.Errorf("%w: %v", sched.ErrAlreadyManaged, t)
	}
	*q.pol.Tag(t) = math.Max(*q.pol.Rest(t), q.v)
	q.weights.Add(t)
	q.run.Push(t)
	q.warped = q.warped || q.warp(t) != 0
	q.recomputeV()
	return nil
}

// Remove implements sched.Scheduler.
func (q *Queue) Remove(t *sched.Thread, now simtime.Time) error {
	if !q.run.Remove(t) {
		return fmt.Errorf("%w: %v", sched.ErrNotManaged, t)
	}
	q.weights.Remove(t)
	q.recomputeV()
	return nil
}

// Charge implements sched.Scheduler: tag += ran/φ in the policy's unit, and
// the resting tag follows. t may have left the runnable set mid-slice.
func (q *Queue) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	if ran < 0 {
		panic(q.pol.Name + ": negative charge")
	}
	t.Service += ran
	tag := q.pol.Tag(t)
	*tag += q.pol.Advance(t, ran, q.quantum)
	*q.pol.Rest(t) = *tag
	q.last = *tag
	q.run.Fix(t)
	q.recomputeV()
}

// SetWeight implements sched.Scheduler. The tie-break among equal tags may
// read the weight, so a runnable thread is repositioned.
func (q *Queue) SetWeight(t *sched.Thread, w float64, now simtime.Time) error {
	if !sched.ValidWeight(w) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, w)
	}
	if q.run.Contains(t) {
		q.weights.UpdateWeight(t, w)
		q.run.Fix(t)
		return nil
	}
	t.Weight, t.Phi = w, w
	if q.pol.OnPhi != nil {
		q.pol.OnPhi(t)
	}
	return nil
}

// SetWarp changes t's warp — BVT's latency advantage, in tag units — and
// repositions t. Only a Warped policy's order and ranks read it.
func (q *Queue) SetWarp(t *sched.Thread, warp float64) {
	t.Warp = warp
	if q.run.Fix(t) {
		q.warped = q.warped || q.warp(t) != 0
	}
}

// Pick implements sched.Scheduler: the first thread in queue order that is
// not already running. At most p threads are, so it is among the first p+1.
func (q *Queue) Pick(cpu int, now simtime.Time) *sched.Thread {
	q.picks = q.run.AppendKSmallest(q.picks[:0], q.p+1)
	for _, t := range q.picks {
		if !t.Running() {
			return t
		}
	}
	return nil
}

// Less implements sched.Scheduler: the smaller tag, less its warp, wins.
func (q *Queue) Less(a, b *sched.Thread) bool {
	return *q.pol.Tag(a)-q.warp(a) < *q.pol.Tag(b)-q.warp(b)
}

// PreemptRank implements sched.Tagged: the tag projected forward by ran of
// uncharged service, less the warp — unlike in FreshSurplus, because the warp
// is exactly the dispatch-latency advantage a woken thread preempts with.
func (q *Queue) PreemptRank(t *sched.Thread, ran simtime.Duration) float64 {
	return *q.pol.Tag(t) + q.pol.Advance(t, ran, q.quantum) - q.warp(t)
}

// recomputeV sets v to the minimum tag of the runnable set: the head of the
// queue unless a warp may have pulled some thread ahead of its tag — only
// then is the set scanned, and the scan notices when the last warp has left.
// An idle queue's v is the tag the latest charge left: the SFQ rule, taken
// for every policy (DESIGN.md §1).
func (q *Queue) recomputeV() {
	head, ok := q.run.Min()
	switch {
	case !ok:
		q.v = q.last
	case !q.warped:
		q.v = *q.pol.Tag(head)
	default:
		q.v, q.warped = math.Inf(1), false
		q.run.Each(func(t *sched.Thread) bool {
			q.v = math.Min(q.v, *q.pol.Tag(t))
			q.warped = q.warped || t.Warp != 0
			return true
		})
	}
}
