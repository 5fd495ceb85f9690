package sched_test

// Pins Scheduler.Charge's splitting contract for every policy: mid-slice
// installments followed by a boundary charge for the remainder must leave the
// thread where a single charge of the total would have — Service, time
// sharing's Counter and TickRem exactly, tags up to the rounding of the
// individual divisions, and never a different pick order. Both simulator and
// runtime split charges this way (the simulator's syncRunning under every
// policy, the runtime's enforcement pass under the tag policies).

import (
	"math"
	"testing"

	"sfsched/internal/bvt"
	"sfsched/internal/core"
	"sfsched/internal/hier"
	"sfsched/internal/lottery"
	"sfsched/internal/partition"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/stride"
	"sfsched/internal/timeshare"
)

func interimThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

// classServiceMatches checks, for the hierarchical policy, that the service
// its classes account equals what its threads received: an installment that
// reached the tags but not the class account would break it.
func classServiceMatches(t *testing.T, s sched.Scheduler, threads []*sched.Thread) {
	t.Helper()
	h, ok := s.(*hier.Hier)
	if !ok {
		return
	}
	var byThread simtime.Duration
	for _, th := range threads {
		byThread += th.Service
	}
	var byClass float64
	for _, c := range h.Classes() {
		byClass += c.Service()
	}
	if byClass != byThread.Seconds() {
		t.Errorf("classes account %gs of service, their threads received %gs", byClass, byThread.Seconds())
	}
}

func TestInterimChargeComposition(t *testing.T) {
	const quantum = 10 * simtime.Millisecond
	factories := map[string]func() sched.Scheduler{
		"sfs":    func() sched.Scheduler { return core.New(2, core.WithQuantum(quantum)) },
		"sfq":    func() sched.Scheduler { return sfq.New(2, sfq.WithQuantum(quantum)) },
		"stride": func() sched.Scheduler { return stride.New(2, stride.WithQuantum(quantum)) },
		"bvt":    func() sched.Scheduler { return bvt.New(2, bvt.WithQuantum(quantum)) },
		"hier":   func() sched.Scheduler { return hier.New(2, quantum) },
		// The policies without tags: Counter and TickRem, Service alone,
		// and a charge routed to the thread's home processor.
		"timeshare": func() sched.Scheduler { return timeshare.New(2) },
		"lottery":   func() sched.Scheduler { return lottery.New(2, lottery.WithQuantum(quantum)) },
		"partition": func() sched.Scheduler { return partition.New(2, partition.WithQuantum(quantum)) },
	}
	// Relative tolerance for the float tag divisions: r₁/φ + r₂/φ + r₃/φ
	// versus (r₁+r₂+r₃)/φ differ by a few ulps at most.
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for name, factory := range factories {
		t.Run(name, func(t *testing.T) {
			whole, split := factory(), factory()
			weights := []float64{1, 2, 4}
			wThreads := make([]*sched.Thread, len(weights))
			sThreads := make([]*sched.Thread, len(weights))
			for i, w := range weights {
				wThreads[i] = interimThread(i+1, w)
				sThreads[i] = interimThread(i+1, w)
				if err := whole.Add(wThreads[i], 0); err != nil {
					t.Fatal(err)
				}
				if err := split.Add(sThreads[i], 0); err != nil {
					t.Fatal(err)
				}
			}
			wPick := whole.Pick(0, 0)
			sPick := split.Pick(0, 0)
			if wPick == nil || sPick == nil || wPick.ID != sPick.ID {
				t.Fatalf("initial picks diverge: %v vs %v", wPick, sPick)
			}
			wPick.CPU, sPick.CPU = 0, 0

			// One 10 ms slice, charged whole vs in 3+4+3 ms installments.
			whole.Charge(wPick, 10*simtime.Millisecond, simtime.Time(10*simtime.Millisecond))
			split.Charge(sPick, 3*simtime.Millisecond, simtime.Time(3*simtime.Millisecond))
			split.Charge(sPick, 4*simtime.Millisecond, simtime.Time(7*simtime.Millisecond))
			split.Charge(sPick, 3*simtime.Millisecond, simtime.Time(10*simtime.Millisecond))

			for i := range wThreads {
				a, b := wThreads[i], sThreads[i]
				if a.Service != b.Service {
					t.Errorf("thread %d Service %v vs %v", a.ID, a.Service, b.Service)
				}
				if !close(a.Start, b.Start) || !close(a.Finish, b.Finish) {
					t.Errorf("thread %d tags (%g,%g) vs (%g,%g)",
						a.ID, a.Start, a.Finish, b.Start, b.Finish)
				}
				if !close(a.Pass, b.Pass) {
					t.Errorf("thread %d pass %g vs %g", a.ID, a.Pass, b.Pass)
				}
				if a.Counter != b.Counter || a.TickRem != b.TickRem {
					t.Errorf("thread %d counter %d+%v vs %d+%v", a.ID, a.Counter, a.TickRem, b.Counter, b.TickRem)
				}
			}

			// Same decision class: the two instances pick identically from
			// here on under identical further charges.
			wPick.CPU, sPick.CPU = sched.NoCPU, sched.NoCPU
			now := simtime.Time(10 * simtime.Millisecond)
			for i := 0; i < 30; i++ {
				wNext := whole.Pick(0, now)
				sNext := split.Pick(0, now)
				if (wNext == nil) != (sNext == nil) {
					t.Fatalf("step %d: pick %v vs %v", i, wNext, sNext)
				}
				if wNext == nil {
					break
				}
				if wNext.ID != sNext.ID {
					t.Fatalf("step %d: pick order diverges: %d vs %d", i, wNext.ID, sNext.ID)
				}
				wNext.CPU, sNext.CPU = 0, 0
				now = now.Add(5 * simtime.Millisecond)
				whole.Charge(wNext, 5*simtime.Millisecond, now)
				split.Charge(sNext, 5*simtime.Millisecond, now)
				wNext.CPU, sNext.CPU = sched.NoCPU, sched.NoCPU
			}
			classServiceMatches(t, whole, wThreads)
			classServiceMatches(t, split, sThreads)
		})
	}
}
