// Package bvt implements Borrowed Virtual Time scheduling [Duda & Cheriton,
// SOSP'99], one of the GPS-based algorithms the paper names as suffering
// from the infeasible-weights problem on multiprocessors ("BVT reduces to
// SFQ when the latency parameter is set to zero", §1.2).
//
// Each thread has an actual virtual time A_i that advances by q/w_i when it
// runs; the scheduler picks the thread with the least *effective* virtual
// time E_i = A_i − warp_i, where the warp (SetWarp) is a per-thread latency
// advantage that lets interactive threads borrow against their future
// allocation. The readjustment option grafts the paper's §2.1 algorithm onto
// BVT exactly as onto SFQ.
//
// The algorithm is the GPS-tag kernel, internal/vtq, over A_i (kept in
// Thread.Start) under the effective-virtual-time order. With all warps zero
// that order is SFQ's and the kernel runs the very code SFQ runs.
package bvt

import (
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/vtq"
)

// BVT is a borrowed-virtual-time scheduler for p processors. Not safe for
// concurrent use.
type BVT = vtq.Queue

// Option configures a BVT instance.
type Option = vtq.Option

// WithQuantum sets the maximum quantum granted per dispatch.
func WithQuantum(q simtime.Duration) Option { return vtq.WithQuantum(q) }

// WithReadjustment couples BVT with the weight readjustment algorithm.
func WithReadjustment() Option { return vtq.WithReadjustment() }

// New returns a BVT scheduler for p processors. It panics if p < 1.
func New(p int, opts ...Option) *BVT {
	actual := func(t *sched.Thread) *float64 { return &t.Start }
	return vtq.New(p, vtq.Policy{
		Name:   "BVT",
		Tag:    actual,
		Rest:   actual,
		Warped: true,
		// Ties mirror SFQ's order (descending weight, then ID) so the
		// zero-warp reduction to SFQ holds decision for decision.
		Before: func(x, y *sched.Thread) bool {
			ex, ey := x.Start-x.Warp, y.Start-y.Warp
			if ex != ey {
				return ex < ey
			}
			if x.Weight != y.Weight {
				return x.Weight > y.Weight
			}
			return x.ID < y.ID
		},
	}, opts...)
}
