// Package stride implements stride scheduling [Waldspurger & Weihl, 1995],
// another GPS-based baseline the paper cites as suffering from the
// infeasible-weights problem in multiprocessor environments (§1.2).
//
// Each thread has a stride inversely proportional to its weight and a pass
// value that advances by stride × (q / quantum) when it runs for q; the
// scheduler always runs the thread with the minimum pass. A thread joining
// the runnable set starts at the global pass (the minimum pass in the
// system), the standard remedy against sleeper credit. As with SFQ and BVT,
// vtq.WithReadjustment substitutes φ_i for w_i in the stride.
//
// The algorithm is the GPS-tag kernel, internal/vtq, over the pass value,
// which advances in quanta, not seconds, and breaks ties by thread ID alone.
package stride

import (
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/vtq"
)

// Stride1 is the numerator used to derive strides from weights; any
// consistent constant works in floating point.
const Stride1 = 1.0

// Stride is a stride scheduler for p processors. Not safe for concurrent
// use.
type Stride = vtq.Queue

// Option configures a Stride instance.
type Option = vtq.Option

// WithQuantum sets the maximum quantum granted per dispatch.
func WithQuantum(q simtime.Duration) Option { return vtq.WithQuantum(q) }

// New returns a stride scheduler for p processors. It panics if p < 1.
func New(p int, opts ...Option) *Stride {
	pass := func(t *sched.Thread) *float64 { return &t.Pass }
	return vtq.New(p, vtq.Policy{
		Name: "stride",
		Tag:  pass,
		Rest: pass,
		Before: func(a, b *sched.Thread) bool {
			if a.Pass != b.Pass {
				return a.Pass < b.Pass
			}
			return a.ID < b.ID
		},
		// Thread.Stride caches Stride1/φ; a charge advances the pass by the
		// fraction of the quantum consumed.
		OnPhi: func(t *sched.Thread) { t.Stride = Stride1 / t.Phi },
		Advance: func(t *sched.Thread, ran, quantum simtime.Duration) float64 {
			return t.Stride * float64(ran) / float64(quantum)
		},
	}, opts...)
}
