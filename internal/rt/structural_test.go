package rt_test

// Structural golden tests: instead of bounding how far two schedulers may
// statistically drift, these attach an engine.Recorder to each driver and
// require the recorded decision sequences — every Admit, Depart, Pick, Begin
// and Settle, with instants, processors and charged durations — to be
// IDENTICAL. A trace equality is a much stronger claim than a service bound:
// it says the simulator and the runtime are the same decision procedure under
// two clocks, which is exactly what extracting internal/engine bought.

import (
	"testing"

	"sfsched/internal/engine"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// decisionLog is the test Recorder: an append-only event capture. Record is
// invoked under the driver's own lock, so no synchronization is needed here.
type decisionLog struct {
	events []engine.Event
}

func (l *decisionLog) Record(e engine.Event) { l.events = append(l.events, e) }

var kindNames = map[engine.Kind]string{
	engine.KindAdmit:   "admit",
	engine.KindDepart:  "depart",
	engine.KindPick:    "pick",
	engine.KindBegin:   "begin",
	engine.KindInterim: "interim",
	engine.KindSettle:  "settle",
}

// diffTraces fails the test at the first diverging event, printing a small
// window of context on both sides.
func diffTraces(t *testing.T, wantName string, want []engine.Event, gotName string, got []engine.Event) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			for j := lo; j <= i; j++ {
				t.Logf("event %d: %s %s{id %d cpu %d ran %v at %v} | %s %s{id %d cpu %d ran %v at %v}",
					j, wantName, kindNames[want[j].Kind], want[j].ID, want[j].CPU, want[j].Ran, want[j].Now,
					gotName, kindNames[got[j].Kind], got[j].ID, got[j].CPU, got[j].Ran, got[j].Now)
			}
			t.Fatalf("decision traces diverge at event %d", i)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("decision trace lengths differ: %s %d, %s %d", wantName, len(want), gotName, len(got))
	}
}

// TestStructuralMachineVsRuntime upgrades the golden differential from charge
// equality to full decision-trace equality: the simulated machine and the
// fake-clock runtime, driving the same scenarios through their shared engine,
// must emit identical event sequences — same kinds, same threads, same
// processors, same durations, same instants. Runs with wakeup preemption
// disarmed and armed; cooperative flags no task polls must not perturb a
// single decision.
func TestStructuralMachineVsRuntime(t *testing.T) {
	for _, sc := range goldenScenarios() {
		for _, preempt := range []bool{false, true} {
			name := sc.name
			if preempt {
				name += "/preempt-armed"
			}
			t.Run(name, func(t *testing.T) {
				_, _, mev := machineTrace(t, sc.cpus, sc.quantum, sc.scripts, sc.horizon)
				_, _, rev := runtimeTrace(t, sc.cpus, sc.quantum, sc.scripts, sc.horizon, preempt)
				if len(mev) < 500 {
					t.Fatalf("degenerate scenario: only %d decisions", len(mev))
				}
				diffTraces(t, "machine", mev, "runtime", rev)
			})
		}
	}
}

// TestShardedDecisionTraceVsReplica is the structural replacement for the
// former statistical sharded-vs-central differential (an 8%% service bound):
// each shard of a two-shard runtime must produce, decision for decision, the
// trace of an isolated single-shard runtime hosting only that shard's
// tenants. Shards share no scheduler state, so the k-choices partition fully
// determines every decision — the recorder proves it exactly. (The legacy
// statistical comparison survives as TestStealDifferentialVsCentral, the
// canary for workloads where traces legitimately diverge.)
func TestShardedDecisionTraceVsReplica(t *testing.T) {
	const shards = 2
	const ticks = 2000
	const slice = 5 * simtime.Millisecond

	recs := make([]*decisionLog, shards)
	r, clock, tenants := newSharded(t, shards)
	defer r.Close()
	for s := 0; s < shards; s++ {
		recs[s] = &decisionLog{}
		r.SetDecisionRecorder(s, recs[s])
	}
	// Partition by placement, preserving registration order; no rebalance
	// runs below, so the partition is stable for the whole drive.
	part := make([][]int, shards)
	for i, tn := range tenants {
		part[tn.Shard()] = append(part[tn.Shard()], i)
	}
	for s, p := range part {
		if len(p) == 0 {
			t.Fatalf("shard %d received no tenants", s)
		}
	}
	driveTicks(t, r, clock, tenants, ticks, slice, 0)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	for s := 0; s < shards; s++ {
		rep := &decisionLog{}
		clock2 := rt.NewFakeClock()
		r2 := rt.New(rt.Config{
			Workers: 2,
			Quantum: 20 * simtime.Millisecond,
			Clock:   clock2,
			Intake:  rt.IntakeConfig{QueueCap: 4},
			Manual:  true,
		})
		r2.SetDecisionRecorder(0, rep)
		idmap := make(map[int]int)
		reps := make([]*rt.Tenant, 0, len(part[s]))
		for _, gi := range part[s] {
			tn2, err := r2.Register("t", shardedWeights[gi])
			if err != nil {
				t.Fatal(err)
			}
			idmap[tenants[gi].Thread().ID] = tn2.Thread().ID
			reps = append(reps, tn2)
		}
		driveTicks(t, r2, clock2, reps, ticks, slice, 0)
		if err := r2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Remap the sharded runtime's global thread IDs onto the replica's
		// (registration order within a shard is preserved, so the map is
		// order-isomorphic and tie-breaks survive the translation).
		got := make([]engine.Event, len(recs[s].events))
		for i, e := range recs[s].events {
			id, ok := idmap[e.ID]
			if !ok {
				t.Fatalf("shard %d decision %d touches thread %d from another shard", s, i, e.ID)
			}
			e.ID = id
			got[i] = e
		}
		if len(got) < 500 {
			t.Fatalf("degenerate drive: shard %d made only %d decisions", s, len(got))
		}
		diffTraces(t, "replica", rep.events, "shard", got)
		r2.Close()
	}
}
