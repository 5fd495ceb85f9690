// Package sfq implements start-time fair queueing (SFQ) [Goyal, Guo, Vin;
// OSDI'96] applied naively to a multiprocessor, the primary baseline of the
// paper.
//
// SFQ assigns each thread a start tag S_i and finish tag F_i; a thread that
// runs for q units advances to F_i = S_i + q/w_i, a newly arriving thread
// receives the minimum start tag in the system (the virtual time v), and at
// every scheduling instance the thread with the minimum start tag runs. On a
// uniprocessor SFQ has strong fairness guarantees; on a multiprocessor it
// suffers from the two defects the paper demonstrates:
//
//   - Infeasible weights (Example 1, Figure 1): a thread whose weight demands
//     more than one processor's worth of bandwidth drags the virtual time
//     down and starves light threads. WithReadjustment fixes this by basing
//     tags on readjusted instantaneous weights φ_i (Figure 4).
//   - Scheduling in "spurts" (Example 2, Figure 5): with frequent arrivals
//     and departures, heavy threads and fresh short jobs monopolize the
//     processors even when all weights are feasible. Only SFS
//     (internal/core) fixes this.
//
// The algorithm is the GPS-tag kernel, internal/vtq, over the S_i/F_i pair.
package sfq

import (
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/vtq"
)

// SFQ is a multiprocessor start-time fair queueing scheduler. Not safe for
// concurrent use.
type SFQ = vtq.Queue

// Option configures an SFQ instance.
type Option = vtq.Option

// WithQuantum sets the maximum quantum granted per dispatch.
func WithQuantum(q simtime.Duration) Option { return vtq.WithQuantum(q) }

// WithReadjustment couples SFQ with the paper's weight readjustment
// algorithm (§2.1); tags then advance by q/φ_i instead of q/w_i.
func WithReadjustment() Option { return vtq.WithReadjustment() }

// New returns an SFQ scheduler for p processors. It panics if p < 1.
func New(p int, opts ...Option) *SFQ {
	return vtq.New(p, vtq.Policy{
		Name: "SFQ",
		Tag:  func(t *sched.Thread) *float64 { return &t.Start },
		Rest: func(t *sched.Thread) *float64 { return &t.Finish },
		// Tie-break equal start tags by descending weight, then ID. The
		// paper leaves tie-breaking arbitrary; favouring the heavier thread
		// is what lets a newly arrived short task with a large weight run
		// ahead of an equal-tagged crowd of weight-1 threads, the behaviour
		// Example 2 describes ("gets to run continuously on a processor
		// until it departs").
		Before: func(a, b *sched.Thread) bool {
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.Weight != b.Weight {
				return a.Weight > b.Weight
			}
			return a.ID < b.ID
		},
	}, opts...)
}
