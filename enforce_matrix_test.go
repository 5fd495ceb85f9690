package sfsched_test

// Adversarial never-yield hogs against every live policy, with involuntary
// slice enforcement armed: the worst workload cooperative preemption cannot
// touch (plain Tasks whose closures ignore their slices entirely), driven
// deterministically on a Manual runtime with a FakeClock. The matrix pins the
// per-policy latency contract of DESIGN.md §10:
//
//   - Preempter policies (SFS, SFQ, SFQ+readjust, stride, BVT, hier): a
//     wakeup flags the worst-ranked hog, the flag is useless to a plain Task,
//     and the next enforcement pass converts it into a handoff — the woken
//     tenant dispatches within two enforcement ticks.
//   - lottery (no Preempter): wakeups cannot flag anyone, so enforcement
//     bounds only the lane turnover — every hog slice is confiscated at its
//     20 ms deadline — and each turnover holds a lottery the woken tenant
//     wins with probability φ/Σφ (1/7 here). The median wake is one
//     turnover; the tail is geometric over quantum-length rounds.
//   - timeshare (no Preempter, no InterimCharger): slices are counter-length
//     (up to 200 ms, usually longer than a hog's closure), so enforcement
//     rarely has anything to confiscate and the woken tenant waits for a
//     closure to end AND must win the goodness comparison against freshly
//     recharged hogs — the documented residual divergence: a median of one
//     50 ms closure and a tail of a few closure rounds, bounded by the
//     workload rather than by any enforcement parameter.
//
// Deadline handoffs are legal under every policy — detachment settles the
// slice with a plain Charge — which is why even the non-Preempter rows stay
// bounded with enforcement armed.

import (
	"fmt"
	"testing"

	"sfsched"
	"sfsched/internal/simtime"
)

func TestEnforcementPolicyMatrix(t *testing.T) {
	const (
		workers = 2
		hogs    = 6
		tick    = simtime.Millisecond
		quantum = 20 * simtime.Millisecond
		hogRun  = 50 * simtime.Millisecond // closure wall time, deaf to slices
		burst   = simtime.Millisecond
		think   = 10 * simtime.Millisecond
		steps   = 3000
	)
	// Per-policy (p50, p99) bounds for the interactive wake latency, all
	// including the histogram's ≤25% bucket overestimate. Preempter policies
	// owe two enforcement ticks outright (flag at the wakeup, handoff at the
	// next pass). Lottery's median is one enforced lane turnover (quantum +
	// a tick) but its tail is a geometric number of turnover draws — eight
	// rounds covers p99 at a 1/7 win probability. Timeshare's median is one
	// hog closure and its tail a few closure rounds lost to goodness ties.
	twoTicks := simtime.Duration(2500 * simtime.Microsecond)
	turnover := (quantum + 2*tick) * 5 / 4
	closure := (hogRun + 2*tick) * 5 / 4
	bounds := map[string][2]simtime.Duration{
		"sfs":          {twoTicks, twoTicks},
		"sfq":          {twoTicks, twoTicks},
		"sfq+readjust": {twoTicks, twoTicks},
		"stride":       {twoTicks, twoTicks},
		"bvt":          {twoTicks, twoTicks},
		"hier":         {twoTicks, twoTicks},
		"lottery":      {turnover, 8 * turnover},
		"timeshare":    {closure, 4 * closure},
	}
	// Policies whose deadlines are guaranteed to fire: every slice is at
	// most the 20 ms quantum, shorter than the 50 ms closures.
	wantHandoffs := map[string]bool{"sfs": true, "sfq": true, "sfq+readjust": true,
		"stride": true, "bvt": true, "hier": true, "lottery": true}

	for _, name := range sfsched.LivePolicies() {
		t.Run(name, func(t *testing.T) {
			policy, err := sfsched.PolicyByName(name, quantum)
			if err != nil {
				t.Fatal(err)
			}
			clock := sfsched.NewFakeClock()
			r := sfsched.NewRuntime(sfsched.RuntimeConfig{
				Workers: workers, Quantum: quantum, Policy: policy,
				Clock: clock, Manual: true, Preempt: true,
				Intake:      sfsched.IntakeConfig{QueueCap: 4},
				Enforcement: sfsched.EnforcementConfig{Enabled: true, Tick: tick},
			})
			defer r.Close()
			interact, err := r.Register("interact", 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < hogs; i++ {
				hog, err := r.Register(fmt.Sprintf("hog%d", i), 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := hog.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
					t.Fatal(err)
				}
			}
			busy := make([]*sfsched.Dispatched, workers)
			end := make([]simtime.Time, workers)
			type outOfBand struct {
				d     *sfsched.Dispatched
				endAt simtime.Time
			}
			var detached []outOfBand
			nextWake := simtime.Time(10 * simtime.Millisecond)
			for step := 0; step < steps; step++ {
				now := clock.Now()
				for w := 0; w < workers; w++ {
					if busy[w] != nil {
						continue
					}
					d := r.Dispatch(w)
					if d == nil {
						continue
					}
					busy[w] = d
					if d.Tenant() == interact {
						end[w] = now.Add(burst)
					} else {
						end[w] = now.Add(hogRun) // the closure ignores its slice
					}
				}
				if now >= nextWake && interact.Queued() == 0 {
					if err := interact.SubmitTask(sfsched.RunOnce(func() {})); err != nil {
						t.Fatal(err)
					}
					nextWake = now.Add(think)
				}
				clock.Advance(tick)
				r.Enforce()
				now = clock.Now()
				for w := 0; w < workers; w++ {
					d := busy[w]
					if d == nil {
						continue
					}
					if d.Detached() {
						// Lane confiscated mid-closure; the closure keeps
						// burning out of band until its scripted end.
						detached = append(detached, outOfBand{d, end[w]})
						busy[w] = nil
						continue
					}
					if now >= end[w] {
						busy[w] = nil
						d.Complete(d.Tenant() == interact)
					}
				}
				keep := detached[:0]
				for _, ob := range detached {
					if now >= ob.endAt {
						ob.d.Complete(false) // closure finally returns
					} else {
						keep = append(keep, ob)
					}
				}
				detached = keep
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			stats := r.Stats()
			var inter sfsched.TenantStat
			for _, s := range stats {
				if s.Name == "interact" {
					inter = s
				}
			}
			t.Logf("%s: wakes %d, wake p50/p99/max %v/%v/%v, handoffs %d",
				name, inter.Wake.Count, inter.Wake.P50, inter.Wake.P99,
				inter.Wake.Max, r.Handoffs())
			if inter.Wake.Count < 40 {
				t.Fatalf("degenerate scenario: only %d interactive wakes", inter.Wake.Count)
			}
			if limit := bounds[name][0]; inter.Wake.P50 > limit {
				t.Errorf("wake p50 %v exceeds the %s bound %v", inter.Wake.P50, name, limit)
			}
			if limit := bounds[name][1]; inter.Wake.P99 > limit {
				t.Errorf("wake p99 %v exceeds the %s bound %v", inter.Wake.P99, name, limit)
			}
			if wantHandoffs[name] && r.Handoffs() == 0 {
				t.Errorf("no handoffs under %s despite sub-closure slices", name)
			}
			if inter.Handoffs != 0 {
				t.Errorf("interactive tenant itself handed off %d times", inter.Handoffs)
			}
			var hogHandoffs int64
			for _, s := range stats {
				if s.Name != "interact" {
					hogHandoffs += s.Handoffs
				}
			}
			if hogHandoffs != r.Handoffs() {
				t.Errorf("per-tenant handoffs sum to %d, runtime counted %d",
					hogHandoffs, r.Handoffs())
			}
		})
	}
}
