package engine_test

// Tests of the shared dispatch engine: the sentinel errors both drivers wrap
// (PR-8 conformance style), the charge-composition property generalized from
// internal/sched's TestInterimChargeComposition to the engine code path, the
// decision recorder, and the Slice accounting invariant.

import (
	"errors"
	"math"
	"strings"
	"testing"

	"sfsched/internal/bvt"
	"sfsched/internal/core"
	"sfsched/internal/engine"
	"sfsched/internal/hier"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/stride"
)

func newThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

// stubSched is a minimal, deliberately misbehaving policy for exercising the
// engine's contract validation.
type stubSched struct {
	pick    *sched.Thread
	slice   simtime.Duration
	charges []simtime.Duration
}

func (s *stubSched) Name() string                             { return "stub" }
func (s *stubSched) NumCPU() int                              { return 1 }
func (s *stubSched) Add(*sched.Thread, simtime.Time) error    { return nil }
func (s *stubSched) Remove(*sched.Thread, simtime.Time) error { return nil }
func (s *stubSched) Pick(int, simtime.Time) *sched.Thread     { return s.pick }
func (s *stubSched) Timeslice(*sched.Thread, simtime.Time) simtime.Duration {
	return s.slice
}
func (s *stubSched) Charge(_ *sched.Thread, ran simtime.Duration, _ simtime.Time) {
	s.charges = append(s.charges, ran)
}
func (s *stubSched) SetWeight(*sched.Thread, float64, simtime.Time) error { return nil }
func (s *stubSched) Runnable() int                                        { return 0 }
func (s *stubSched) Less(_, _ *sched.Thread) bool                         { return false }

// TestEngineSentinels pins the engine's scheduler-contract sentinels:
// errors.Is must identify them through the wrapping either driver applies.
func TestEngineSentinels(t *testing.T) {
	running := newThread(1, 1)
	running.CPU = 0
	st := &stubSched{pick: running, slice: simtime.Millisecond}
	e := engine.New(st)
	if _, err := e.Pick(0, 0); !errors.Is(err, engine.ErrThreadRunning) {
		t.Fatalf("Pick of a running thread: got %v, want ErrThreadRunning", err)
	}
	st.pick = nil
	if th, err := e.Pick(0, 0); th != nil || err != nil {
		t.Fatalf("empty Pick: got (%v, %v), want (nil, nil)", th, err)
	}
	st.slice = 0
	var sl engine.Slice
	err := e.Begin(&sl, newThread(2, 1), 0, 0, 0)
	if !errors.Is(err, engine.ErrBadTimeslice) {
		t.Fatalf("zero-quantum Begin: got %v, want ErrBadTimeslice", err)
	}
	if !strings.Contains(err.Error(), "stub") {
		t.Fatalf("ErrBadTimeslice does not name the offending policy: %v", err)
	}
}

// TestEngineChargeFallback pins installments for a policy that is not
// sched.Tagged: ChargeInstallment routes through plain Charge,
// InterimInstallment is a no-op, and the Slice accounting advances
// identically either way.
func TestEngineChargeFallback(t *testing.T) {
	st := &stubSched{slice: 10 * simtime.Millisecond}
	e := engine.New(st)
	if e.Tag != nil {
		t.Fatal("stub scheduler unexpectedly offers sched.Tagged")
	}
	th := newThread(1, 1)
	var sl engine.Slice
	if err := e.Begin(&sl, th, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if ran := e.InterimInstallment(&sl, simtime.Time(3*simtime.Millisecond)); ran != 0 {
		t.Fatalf("InterimInstallment charged %v under a boundary-only policy", ran)
	}
	if ran := e.ChargeInstallment(&sl, simtime.Time(3*simtime.Millisecond), engine.NoCap); ran != 3*simtime.Millisecond {
		t.Fatalf("ChargeInstallment charged %v, want 3ms", ran)
	}
	if ran := e.Settle(&sl, simtime.Time(10*simtime.Millisecond), engine.NoCap); ran != 7*simtime.Millisecond {
		t.Fatalf("Settle charged %v, want 7ms", ran)
	}
	if len(st.charges) != 2 || st.charges[0] != 3*simtime.Millisecond || st.charges[1] != 7*simtime.Millisecond {
		t.Fatalf("plain-Charge fallback saw %v, want [3ms 7ms]", st.charges)
	}
	if sl.Charged != 10*simtime.Millisecond || sl.LastCharge != simtime.Time(10*simtime.Millisecond) {
		t.Fatalf("slice accounting off: charged %v at %v", sl.Charged, sl.LastCharge)
	}
}

// TestSettleNeverMovesLastChargeBack settles a slice at a clock that stepped
// back behind its last installment: nothing is charged, LastCharge stays put,
// and the next installment charges only what is new, so Charged == LastCharge
// − Start holds throughout.
func TestSettleNeverMovesLastChargeBack(t *testing.T) {
	st := &stubSched{slice: simtime.Millisecond}
	e := engine.New(st)
	var sl engine.Slice
	if err := e.Begin(&sl, newThread(1, 1), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	e.ChargeInstallment(&sl, 100, engine.NoCap)
	if ran := e.Settle(&sl, 50, engine.NoCap); ran != 0 || sl.LastCharge != 100 {
		t.Errorf("Settle at 50 after LastCharge 100: charged %d, LastCharge %d; want 0, 100", ran, sl.LastCharge)
	}
	if ran := e.ChargeInstallment(&sl, 120, engine.NoCap); ran != 20 {
		t.Fatalf("installment at 120 charged %d, want 20: the step back re-opened charged time", ran)
	}
	if got := sl.LastCharge.Sub(sl.Start); sl.Charged != got {
		t.Fatalf("Charged %v, LastCharge − Start %v", sl.Charged, got)
	}
}

// traceRecorder collects engine decisions for inspection.
type traceRecorder struct{ events []engine.Event }

func (r *traceRecorder) Record(e engine.Event) { r.events = append(r.events, e) }

// TestEngineRecorder pins the decision-event stream one slice lifecycle
// produces: Admit, Pick, Begin(quantum), Interim(ran), Settle(ran), Depart.
func TestEngineRecorder(t *testing.T) {
	const q = 10 * simtime.Millisecond
	e := engine.New(core.New(1, core.WithQuantum(q)))
	rec := &traceRecorder{}
	e.SetRecorder(rec)
	th := newThread(7, 2)
	th.State = sched.New
	if err := e.Admit(th, 0); err != nil {
		t.Fatal(err)
	}
	picked, err := e.Pick(0, 0)
	if err != nil || picked != th {
		t.Fatalf("Pick: (%v, %v)", picked, err)
	}
	var sl engine.Slice
	if err := e.Begin(&sl, picked, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	e.ChargeInstallment(&sl, simtime.Time(4*simtime.Millisecond), engine.NoCap)
	e.Settle(&sl, simtime.Time(q), engine.NoCap)
	th.CPU = sched.NoCPU
	if err := e.Depart(th, sched.Blocked, simtime.Time(q)); err != nil {
		t.Fatal(err)
	}
	want := []engine.Event{
		{Kind: engine.KindAdmit, ID: 7, CPU: sched.NoCPU, Now: 0},
		{Kind: engine.KindPick, ID: 7, CPU: 0, Now: 0},
		{Kind: engine.KindBegin, ID: 7, CPU: 0, Ran: q, Now: 0},
		{Kind: engine.KindInterim, ID: 7, CPU: sched.NoCPU, Ran: 4 * simtime.Millisecond, Now: simtime.Time(4 * simtime.Millisecond)},
		{Kind: engine.KindSettle, ID: 7, CPU: sched.NoCPU, Ran: 6 * simtime.Millisecond, Now: simtime.Time(q)},
		{Kind: engine.KindDepart, ID: 7, CPU: sched.NoCPU, Now: simtime.Time(q)},
	}
	if len(rec.events) != len(want) {
		t.Fatalf("recorded %d events, want %d: %+v", len(rec.events), len(want), rec.events)
	}
	for i := range want {
		if rec.events[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, rec.events[i], want[i])
		}
	}
	if th.State != sched.Blocked {
		t.Fatalf("Depart left state %v", th.State)
	}
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

// TestEngineChargeComposition generalizes the charge-splitting contract test
// to the engine code path every driver shares: N ChargeInstallment calls plus
// the boundary Settle must leave every thread exactly where one Settle of the
// whole slice would have — Service exactly, tags up to float rounding, and
// never a different pick order. Run across the tag policies.
func TestEngineChargeComposition(t *testing.T) {
	const quantum = 10 * simtime.Millisecond
	cases := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"sfs-exact", func() sched.Scheduler { return core.New(2, core.WithQuantum(quantum)) }},
		{"sfq", func() sched.Scheduler { return sfq.New(2, sfq.WithQuantum(quantum)) }},
		{"stride", func() sched.Scheduler { return stride.New(2, stride.WithQuantum(quantum)) }},
		{"bvt", func() sched.Scheduler { return bvt.New(2, bvt.WithQuantum(quantum)) }},
		{"hier", func() sched.Scheduler { return hier.New(2, quantum) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			close := func(a, b float64) bool {
				return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
			}
			wholeS, splitS := tc.mk(), tc.mk()
			whole := engine.New(wholeS)
			split := engine.New(splitS)
			weights := []float64{1, 2, 4}
			wThreads := make([]*sched.Thread, len(weights))
			sThreads := make([]*sched.Thread, len(weights))
			for i, w := range weights {
				wThreads[i] = newThread(i+1, w)
				sThreads[i] = newThread(i+1, w)
				if err := whole.Admit(wThreads[i], 0); err != nil {
					t.Fatal(err)
				}
				if err := split.Admit(sThreads[i], 0); err != nil {
					t.Fatal(err)
				}
			}
			wPick, err := whole.Pick(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			sPick, err := split.Pick(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if wPick == nil || sPick == nil || wPick.ID != sPick.ID {
				t.Fatalf("initial picks diverge: %v vs %v", wPick, sPick)
			}
			var wsl, ssl engine.Slice
			if err := whole.Begin(&wsl, wPick, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := split.Begin(&ssl, sPick, 0, 0, 0); err != nil {
				t.Fatal(err)
			}

			// One 10 ms slice, settled whole vs 3+4 ms installments plus the
			// 3 ms boundary remainder.
			whole.Settle(&wsl, simtime.Time(10*simtime.Millisecond), engine.NoCap)
			split.ChargeInstallment(&ssl, simtime.Time(3*simtime.Millisecond), engine.NoCap)
			split.ChargeInstallment(&ssl, simtime.Time(7*simtime.Millisecond), engine.NoCap)
			if got := split.Settle(&ssl, simtime.Time(10*simtime.Millisecond), engine.NoCap); got != 3*simtime.Millisecond {
				t.Fatalf("boundary remainder %v, want 3ms", got)
			}
			for _, sl := range []*engine.Slice{&wsl, &ssl} {
				if sl.Charged != 10*simtime.Millisecond ||
					sl.Charged != sl.LastCharge.Sub(sl.Start) {
					t.Fatalf("slice invariant broken: charged %v over [%v, %v]",
						sl.Charged, sl.Start, sl.LastCharge)
				}
			}
			wPick.CPU, sPick.CPU = sched.NoCPU, sched.NoCPU

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
			}

			// Same decision class from here on: under identical further
			// slices, both instances must pick identically.
			now := simtime.Time(10 * simtime.Millisecond)
			for i := 0; i < 30; i++ {
				wNext, werr := whole.Pick(0, now)
				sNext, serr := split.Pick(0, now)
				if werr != nil || serr != nil {
					t.Fatalf("step %d: pick errors %v / %v", i, werr, serr)
				}
				if (wNext == nil) != (sNext == nil) {
					t.Fatalf("step %d: pick %v vs %v", i, wNext, sNext)
				}
				if wNext == nil {
					break
				}
				if wNext.ID != sNext.ID {
					t.Fatalf("step %d: pick order diverges: %d vs %d", i, wNext.ID, sNext.ID)
				}
				if err := whole.Begin(&wsl, wNext, 0, now, now); err != nil {
					t.Fatal(err)
				}
				if err := split.Begin(&ssl, sNext, 0, now, now); err != nil {
					t.Fatal(err)
				}
				now = now.Add(5 * simtime.Millisecond)
				whole.Settle(&wsl, now, engine.NoCap)
				split.Settle(&ssl, now, engine.NoCap)
				wNext.CPU, sNext.CPU = sched.NoCPU, sched.NoCPU
			}
			classServiceMatches(t, wholeS, wThreads)
			classServiceMatches(t, splitS, sThreads)
		})
	}
}
