// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment is a pure function from a parameter
// struct (with PaperDefaults) to a result struct that can render itself as
// text; cmd/paperbench prints them all, the root bench_test.go wraps each in
// a testing.B benchmark, and the package's tests assert the paper's
// qualitative shapes (who wins, by what factor, where crossovers fall).
//
// See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record.
package experiments

import (
	"fmt"

	"sfsched/internal/bvt"
	"sfsched/internal/core"
	"sfsched/internal/gms"
	"sfsched/internal/lottery"
	"sfsched/internal/machine"
	"sfsched/internal/partition"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/stride"
	"sfsched/internal/timeshare"
)

// Kind names a scheduler configuration available to experiments and the
// CLIs.
type Kind string

// Scheduler kinds.
const (
	SFS         Kind = "sfs"               // surplus fair scheduling
	SFSFixed    Kind = "sfs-fixed"         // SFS with 10^4 fixed-point tags
	SFSNoAdjust Kind = "sfs-noadjust"      // ablation: SFS without readjustment
	SFQ         Kind = "sfq"               // start-time fair queueing (plain)
	SFQReadjust Kind = "sfq+readjust"      // SFQ + weight readjustment
	Timeshare   Kind = "timeshare"         // Linux 2.2-style time sharing
	Stride      Kind = "stride"            // stride scheduling (plain)
	BVT         Kind = "bvt"               // borrowed virtual time (plain)
	Lottery     Kind = "lottery"           // lottery scheduling (plain)
	Partitioned Kind = "partitioned"       // per-CPU SFQ, static placement
	PartRebal   Kind = "partitioned+rebal" // per-CPU SFQ, 1s rebalance
)

// Kinds lists every scheduler kind, for CLI help and sweep experiments.
func Kinds() []Kind {
	return []Kind{SFS, SFSFixed, SFSNoAdjust, SFQ, SFQReadjust,
		Timeshare, Stride, BVT, Lottery, Partitioned, PartRebal}
}

// NewScheduler constructs the scheduler for kind on p CPUs with the given
// maximum quantum.
func NewScheduler(kind Kind, p int, quantum simtime.Duration) (sched.Scheduler, error) {
	switch kind {
	case SFS:
		return core.New(p, core.WithQuantum(quantum)), nil
	case SFSFixed:
		return core.New(p, core.WithQuantum(quantum), core.WithFixedPoint(4)), nil
	case SFSNoAdjust:
		return core.New(p, core.WithQuantum(quantum), core.WithoutReadjustment()), nil
	case SFQ:
		return sfq.New(p, sfq.WithQuantum(quantum)), nil
	case SFQReadjust:
		return sfq.New(p, sfq.WithQuantum(quantum), sfq.WithReadjustment()), nil
	case Timeshare:
		return timeshare.New(p), nil
	case Stride:
		return stride.New(p, stride.WithQuantum(quantum)), nil
	case BVT:
		return bvt.New(p, bvt.WithQuantum(quantum)), nil
	case Lottery:
		return lottery.New(p, lottery.WithQuantum(quantum)), nil
	case Partitioned:
		return partition.New(p, partition.WithQuantum(quantum)), nil
	case PartRebal:
		return partition.New(p, partition.WithQuantum(quantum),
			partition.WithRebalance(simtime.Second)), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheduler kind %q", kind)
	}
}

// MustScheduler is NewScheduler for known-good kinds.
func MustScheduler(kind Kind, p int, quantum simtime.Duration) sched.Scheduler {
	s, err := NewScheduler(kind, p, quantum)
	if err != nil {
		panic(err)
	}
	return s
}

// NewMachine builds a machine running kind on p CPUs.
func NewMachine(kind Kind, p int, quantum simtime.Duration, seed uint64) *machine.Machine {
	return machine.New(machine.Config{
		CPUs:      p,
		Scheduler: MustScheduler(kind, p, quantum),
		Seed:      seed,
	})
}

// AttachGMS runs a GMS fluid reference alongside the machine's scheduler,
// fed by the machine's lifecycle hooks. Call before Run; call
// Fluid.Advance(horizon) before reading lags.
func AttachGMS(m *machine.Machine, p int) *gms.Fluid {
	f := gms.New(p)
	m.SetHooks(machine.Hooks{
		Runnable:       f.Add,
		Unrunnable:     f.Remove,
		WeightChanging: func(t *sched.Thread, now simtime.Time) { f.Advance(now) },
	})
	return f
}
