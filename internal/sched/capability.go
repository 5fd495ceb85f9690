// Optional capability interfaces: narrow views a Scheduler may additionally
// implement. The engine (internal/engine) discovers them with one type
// assertion at construction and the runtime (internal/rt) never names a
// concrete policy type, so any Scheduler — SFS, SFQ, stride, BVT,
// hierarchical SFS, time sharing, lottery — can be dispatched, rebalanced
// and reported on behind per-CPU runqueues. A policy that lacks a capability
// still shards; the runtime substitutes a policy-agnostic fallback (a
// service-minus-entitlement lag rank for migration, no frame translation, no
// wakeup preemption, no mid-slice charges) and degrades only the quality of
// its decisions, never correctness.

package sched

import "sfsched/internal/simtime"

// Tagged is a policy whose decisions rest on per-thread tags measured against
// a virtual time — the fair-queueing family (SFS, hierarchical SFS, SFQ, BVT)
// and stride's passes. Its tags advance linearly in the charged duration, so
// a slice may be charged in installments (Charge's splitting contract), and
// the runtime may interim-charge its running threads, rank them for
// migration and wakeup preemption, and carry their position across
// scheduler instances. Policies without a virtual time (time sharing,
// lottery, the partitioned baseline) do not implement it.
type Tagged interface {
	// VirtualTime returns the current virtual time: the global
	// normalized-service frame the tags are measured against (v for the
	// fair-queueing family, the global pass for stride), in the policy's
	// own tag units. It is monotone within one scheduler instance; values
	// are not comparable across instances (see FrameLead).
	VirtualTime() float64

	// FreshSurplus returns how far ahead of its ideal proportional
	// allocation t currently is (SFS's α_i = φ_i·(S_i − v), or an
	// analogue). The rebalancer and thieves prefer to move high-surplus
	// threads, whom the wakeup-style re-entry on the destination costs the
	// least. Only relative order within one instance matters; t must be
	// in the runnable set.
	FreshSurplus(t *Thread) float64

	// FrameLead returns how far t's tag sits ahead of this scheduler's
	// virtual time, and SetFrameLead rewrites it to sit lead ahead, so a
	// subsequent Add re-admits t with the position it held on another
	// instance. Tag frames are per-instance (each shard's virtual time
	// advances at its own pace); without the translation a moving thread
	// would arrive arbitrarily far in the past (banking credit) or future
	// (starving). Both are called with t outside any runnable set. The
	// intra-box rebalancer uses them between the shards of one runtime and
	// the cluster tier between whole runtimes (rt.Deport, rt.Admit).
	FrameLead(t *Thread) float64
	SetFrameLead(t *Thread, lead float64)

	// PreemptRank returns t's claim on a processor — smaller is more
	// deserving — projected forward by ran of service consumed since its
	// tags were last charged (pass 0 for a thread that is not running). A
	// runtime that charges only at slice boundaries holds stale tags for
	// running threads, and comparing a woken thread against a mid-slice
	// hog on stale tags would under-preempt; so a woken w preempts a
	// running t when PreemptRank(w, 0) < PreemptRank(t, ran_t). Ranks are
	// comparable only within one instance at one instant, and the
	// projection mutates nothing.
	PreemptRank(t *Thread, ran simtime.Duration) float64
}

// BatchAdder admits several newly woken threads in one call: equivalent to
// calling Add for each element of ts in order at the same instant, but
// allowing the policy to run whole-set bookkeeping (weight readjustment,
// surplus refreshes) once per batch instead of once per thread. The sharded
// runtime's intake drain uses it so that N wakeups absorbed under one lock
// acquisition cost one readjustment pass; policies without the capability
// are admitted with N ordinary Adds and differ only in constant factors,
// never in the resulting runnable set.
type BatchAdder interface {
	// AddBatch makes every thread of ts runnable at now, as Add would one
	// by one. ts must not contain duplicates or already-managed threads;
	// on error the runnable set is unchanged.
	AddBatch(ts []*Thread, now simtime.Time) error
}
