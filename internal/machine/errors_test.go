package machine

// Conformance test of the driver-level invariant panics: a scheduler that
// violates the engine contract (picking a running thread, picking a thread
// the driver never admitted, granting a non-positive quantum) must surface as
// a panic carrying a wrapped engine sentinel, so errors.Is identifies the
// violation identically from the simulator and the runtime.

import (
	"errors"
	"strings"
	"testing"

	"sfsched/internal/engine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

// rogueSched is a minimal policy whose Pick and Timeslice are scripted to
// violate the scheduler contract on demand.
type rogueSched struct {
	cpus  int
	added []*sched.Thread
	pick  func(added []*sched.Thread) *sched.Thread
	slice simtime.Duration
}

func (s *rogueSched) Name() string { return "rogue" }
func (s *rogueSched) NumCPU() int  { return s.cpus }
func (s *rogueSched) Add(t *sched.Thread, _ simtime.Time) error {
	s.added = append(s.added, t)
	return nil
}
func (s *rogueSched) Remove(*sched.Thread, simtime.Time) error             { return nil }
func (s *rogueSched) Pick(int, simtime.Time) *sched.Thread                 { return s.pick(s.added) }
func (s *rogueSched) Charge(*sched.Thread, simtime.Duration, simtime.Time) {}
func (s *rogueSched) Timeslice(*sched.Thread, simtime.Time) simtime.Duration {
	return s.slice
}
func (s *rogueSched) SetWeight(*sched.Thread, float64, simtime.Time) error { return nil }
func (s *rogueSched) Runnable() int                                        { return len(s.added) }
func (s *rogueSched) Less(_, _ *sched.Thread) bool                         { return false }

func forever() Behavior {
	return BehaviorFunc(func(simtime.Time, *xrand.Rand) Step {
		return Step{Burst: simtime.Infinity}
	})
}

// runRogue spawns one task on a machine driven by sch and returns the
// recovered panic value of Run, which must be an error.
func runRogue(t *testing.T, sch *rogueSched) error {
	t.Helper()
	m := New(Config{CPUs: sch.cpus, Scheduler: sch, DisableWakePreemption: true})
	m.Spawn(SpawnConfig{Name: "victim", Weight: 1, Behavior: forever()})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		m.Run(simtime.Time(simtime.Second))
	}()
	if recovered == nil {
		t.Fatal("contract violation did not panic")
	}
	err, ok := recovered.(error)
	if !ok {
		t.Fatalf("panic value %T is not an error: %v", recovered, recovered)
	}
	return err
}

func TestPanicWrapsThreadRunning(t *testing.T) {
	// Two CPUs, one runnable thread: CPU 0 dispatches it, then CPU 1's pick
	// returns the same (now running) thread.
	sch := &rogueSched{cpus: 2, slice: 10 * simtime.Millisecond}
	sch.pick = func(added []*sched.Thread) *sched.Thread {
		if len(added) == 0 {
			return nil
		}
		return added[0]
	}
	err := runRogue(t, sch)
	if !errors.Is(err, engine.ErrThreadRunning) {
		t.Fatalf("got %v, want wrapped engine.ErrThreadRunning", err)
	}
	if !strings.HasPrefix(err.Error(), "machine: ") {
		t.Fatalf("panic not attributed to the driver: %q", err)
	}
}

func TestPanicWrapsUnknownThread(t *testing.T) {
	// Pick fabricates a thread the machine never admitted. The task table is
	// indexed by thread ID, so the fabrication is tried past the table, below
	// it, and under the spawned task's own ID (another thread, the same slot).
	for _, id := range []int{999, 0, -1, 1} {
		ghost := &sched.Thread{ID: id, Weight: 1, Phi: 1,
			CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
		sch := &rogueSched{cpus: 1, slice: 10 * simtime.Millisecond}
		sch.pick = func([]*sched.Thread) *sched.Thread { return ghost }
		err := runRogue(t, sch)
		if !errors.Is(err, engine.ErrUnknownThread) {
			t.Fatalf("ghost ID %d: got %v, want wrapped engine.ErrUnknownThread", id, err)
		}
		if !strings.HasPrefix(err.Error(), "machine: ") {
			t.Fatalf("ghost ID %d: panic not attributed to the driver: %q", id, err)
		}
	}
}

// TestPanicWrapsExitedThread: an exit (and a Kill) clears the thread's slot in
// the task table, so a policy that hands an exited thread back is told it is
// unknown rather than dispatched again.
func TestPanicWrapsExitedThread(t *testing.T) {
	for _, kill := range []bool{false, true} {
		sch := &rogueSched{cpus: 1, slice: 10 * simtime.Millisecond}
		sch.pick = func(added []*sched.Thread) *sched.Thread {
			if len(added) == 0 || added[0].Running() {
				return nil
			}
			return added[0]
		}
		m := New(Config{CPUs: 1, Scheduler: sch, DisableWakePreemption: true})
		step := Step{Burst: simtime.Millisecond, Then: ThenExit}
		if kill {
			step = Step{Burst: simtime.Infinity}
		}
		k := m.Spawn(SpawnConfig{Weight: 1, Behavior: BehaviorFunc(func(simtime.Time, *xrand.Rand) Step { return step })})
		if kill {
			m.At(simtime.Time(simtime.Millisecond), func(simtime.Time) { m.Kill(k) })
		}
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			m.Run(simtime.Time(simtime.Second))
		}()
		if err, _ := recovered.(error); !errors.Is(err, engine.ErrUnknownThread) {
			t.Fatalf("kill=%v: got %v, want wrapped engine.ErrUnknownThread", kill, recovered)
		}
	}
}

func TestPanicWrapsBadTimeslice(t *testing.T) {
	// A legal pick granted a zero-length quantum.
	sch := &rogueSched{cpus: 1, slice: 0}
	sch.pick = func(added []*sched.Thread) *sched.Thread {
		if len(added) == 0 {
			return nil
		}
		return added[0]
	}
	err := runRogue(t, sch)
	if !errors.Is(err, engine.ErrBadTimeslice) {
		t.Fatalf("got %v, want wrapped engine.ErrBadTimeslice", err)
	}
	if !strings.Contains(err.Error(), "rogue") {
		t.Fatalf("bad-timeslice panic does not name the policy: %q", err)
	}
}

// TestEngineSentinelsDistinct pins that the three engine sentinels never
// alias each other under errors.Is, so a recovered driver panic identifies
// exactly one violation.
func TestEngineSentinelsDistinct(t *testing.T) {
	sentinels := []error{
		engine.ErrUnknownThread, engine.ErrThreadRunning, engine.ErrBadTimeslice,
	}
	for i, a := range sentinels {
		if !errors.Is(a, a) {
			t.Errorf("sentinel %d does not match itself", i)
		}
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Errorf("sentinel %d aliases %d", i, j)
			}
		}
	}
}
