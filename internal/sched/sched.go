// Package sched defines the vocabulary shared by every CPU scheduler in this
// repository: the Thread control block, the Scheduler interface the simulated
// machine drives, and the validation rules common to all implementations.
//
// The split mirrors the paper's implementation (§3): the Linux kernel owns
// thread lifecycle (fork, block, wakeup, exit) and invokes the scheduling
// policy at well-defined points; here internal/machine plays the kernel and
// each policy package (internal/core for SFS, internal/vtq for SFQ, stride and
// BVT, internal/timeshare, ...) implements Scheduler. The policies come in
// three shapes: the tag family (SFS, hierarchical SFS, SFQ, stride, BVT)
// adds Tagged, SFS and hierarchical SFS also add BatchAdder, and time
// sharing, lottery and the partitioned baseline add neither.
package sched

import (
	"errors"
	"fmt"

	"sfsched/internal/runqueue"
	"sfsched/internal/simtime"
)

// State is the lifecycle state of a thread, maintained by the machine (the
// "kernel"), not by scheduling policies.
type State int

// Thread lifecycle states.
const (
	// New is a thread that has been created but not yet added to a
	// scheduler.
	New State = iota
	// Runnable threads are eligible to run (they may currently be running;
	// check CPU >= 0).
	Runnable
	// Blocked threads are sleeping on I/O or a timer and are invisible to
	// scheduling decisions, though some policies (time sharing) still
	// recharge their counters at epoch boundaries.
	Blocked
	// Exited threads have terminated and never return.
	Exited
)

// String returns the conventional lowercase state name.
func (s State) String() string {
	switch s {
	case New:
		return "new"
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case Exited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// NoCPU is the CPU field value of a thread that is not running.
const NoCPU = -1

// DefaultQuantum is the maximum quantum used throughout the paper's
// evaluation (§4.1), the default of every policy that grants one.
const DefaultQuantum = 200 * simtime.Millisecond

// Thread is the scheduler-visible control block. One struct carries the
// fields of every policy (as a kernel task_struct would); each policy uses
// only its own fields. All times are simulated.
//
// The fields are ordered hot first: everything a pick, a charge, a heap sift
// and the φ-class queue read or write sits in the first 128 bytes, two cache
// lines, and the policy-specific fields follow (TestThreadHotFieldsFirst).
type Thread struct {
	ID int

	// Weight is the user-requested weight w_i; always > 0.
	Weight float64
	// Phi is the instantaneous weight φ_i produced by the readjustment
	// algorithm; schedulers that do not readjust keep Phi == Weight.
	Phi float64

	// Fair-queueing tags (SFS, SFQ, BVT): start tag S_i and finish tag F_i.
	// The surplus α_i = φ_i·(S_i − v) is never stored per thread.
	Start  float64
	Finish float64

	// CPU is the processor the thread currently occupies, or NoCPU.
	CPU int
	// LastCPU is the processor the thread most recently ran on, or NoCPU;
	// the machine counts a dispatch elsewhere as a migration.
	LastCPU int

	// Service is the total CPU time received so far.
	Service simtime.Duration

	// rq holds the intrusive run-queue handles, one per runqueue.Slot, the
	// task_struct-style embedding that lets the queues skip hash lookups.
	// Every sift level writes one.
	rq [runqueue.NumSlots]runqueue.Handle[*Thread]

	// PhiClass links a runnable thread to its φ-class in SFS's
	// surplus queue (internal/core): the class's slot in the scheduler's
	// class table plus one, 0 while the thread is in no class. Like the
	// run-queue handles it is intrusive, so the charge path reaches the
	// class without a map lookup.
	PhiClass int32

	// State is maintained by the machine around Scheduler calls.
	State State

	// Owner is the driver's record for the thread (internal/rt's tenant,
	// internal/machine's task), so a driver finds what a pick chose without a
	// lookup. No policy reads it.
	Owner any

	Name string

	// Time-sharing fields (Linux 2.2): remaining timeslice in ticks and
	// static priority. TickRem carries the sub-tick remainder of charged
	// service so that repeated bursts shorter than one tick still consume
	// counter once they accumulate to a tick — without it, a hog that always
	// yields before the tick boundary rides free forever (the 2.2 kernel's
	// tick-sampling exploit) and can starve woken threads of equal goodness.
	Counter  int
	Priority int
	TickRem  simtime.Duration

	// Stride-scheduling fields.
	Pass   float64
	Stride float64

	// BVT fields: warp advantage in virtual-time units (0 = plain SFQ
	// behaviour).
	Warp float64

	// The padding keeps Thread at 256 bytes, in a size class whose objects
	// start on a cache line, so the hot 128 bytes are two whole lines: at
	// 240 bytes sfsbench's flood lost 7–20 % of its throughput
	// (TestThreadSizeClass).
	_ [48]byte
}

// RunqueueHandle implements runqueue.Indexed: the thread's intrusive handle
// for the given queue slot.
func (t *Thread) RunqueueHandle(s runqueue.Slot) *runqueue.Handle[*Thread] {
	return &t.rq[s]
}

// Running reports whether the thread currently occupies a CPU.
func (t *Thread) Running() bool { return t.CPU != NoCPU }

// String identifies the thread for logs and test failures.
func (t *Thread) String() string {
	if t.Name != "" {
		return fmt.Sprintf("%s(#%d w=%g)", t.Name, t.ID, t.Weight)
	}
	return fmt.Sprintf("thread#%d(w=%g)", t.ID, t.Weight)
}

// Errors returned by Scheduler implementations.
var (
	// ErrBadWeight reports a non-positive or non-finite weight.
	ErrBadWeight = errors.New("sched: weight must be positive and finite")
	// ErrNotManaged reports an operation on a thread the scheduler does
	// not currently manage.
	ErrNotManaged = errors.New("sched: thread not managed by this scheduler")
	// ErrAlreadyManaged reports adding a thread twice.
	ErrAlreadyManaged = errors.New("sched: thread already managed")
)

// Scheduler is a CPU scheduling policy for a p-processor machine. The
// machine calls it at the points the paper identifies (§3.1): arrivals,
// wakeups, departures, blocking events, quantum expiries and weight changes.
//
// Threads handed to Add remain under the scheduler's management — including
// while running — until Remove. Pick must never return a thread that is
// already running on another CPU (Thread.CPU >= 0).
type Scheduler interface {
	// Name identifies the policy ("SFS", "SFQ", ...).
	Name() string
	// NumCPU returns the processor count the policy was configured for.
	NumCPU() int

	// Add makes a newly arrived or newly woken thread runnable. The
	// machine sets t.State = Runnable before the call. Policies that
	// readjust weights do so here (the runnable set changed).
	Add(t *Thread, now simtime.Time) error
	// Remove takes a blocking or exiting thread out of the runnable set.
	// The machine sets t.State (Blocked or Exited) before the call.
	Remove(t *Thread, now simtime.Time) error
	// Pick chooses the next thread to run on cpu, or nil if no runnable
	// non-running thread exists. It must not mutate t.CPU; the machine
	// performs the dispatch.
	Pick(cpu int, now simtime.Time) *Thread
	// Charge accounts ran units of CPU service to t (which just ran) and
	// updates the policy's bookkeeping (tags, counters, virtual time).
	// Called on quantum expiry, preemption, blocking and exit, before any
	// Remove. ran may be less than the granted timeslice, and a running
	// thread may be charged mid-slice in installments: for any partition
	// ran = r₁ + … + rₙ, n charges leave t where one charge of ran would
	// have, up to the rounding of the individual divisions and never in a
	// different pick order (§2.3's variable-length quanta).
	Charge(t *Thread, ran simtime.Duration, now simtime.Time)
	// Timeslice returns the quantum the machine should grant t when
	// dispatching it now.
	Timeslice(t *Thread, now simtime.Time) simtime.Duration
	// SetWeight changes the thread's weight at any time, as the paper's
	// setweight system call does.
	SetWeight(t *Thread, w float64, now simtime.Time) error
	// Runnable returns the number of runnable threads (including running).
	Runnable() int
	// Less orders threads by scheduling preference ("a should run before
	// b"); the machine uses it for wakeup preemption decisions.
	Less(a, b *Thread) bool
}

// ValidWeight reports whether w is an acceptable thread weight.
func ValidWeight(w float64) bool {
	return w > 0 && w == w && w <= 1e12 // finite, positive, sane magnitude
}
