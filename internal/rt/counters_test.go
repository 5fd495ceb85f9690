package rt

// White-box tests of the per-shard task counters (shard.tasks) and of where
// the hold's unpublished nready change lives: the state PR 20 moved off the
// lines a sibling shard's worker touches.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"sfsched/internal/simtime"
)

// TestTaskCounterLayout pins the padding around shard.tasks: no other field of
// the shard — the lock word, nready and idlers, the intake ring's head and
// tail among them — may lie on the counter's 64-byte line, whatever the
// allocation's alignment (fields are 8-aligned, so a neighbour must end 56
// bytes before the counter or start 64 after it). ready, written by the lock
// holder every task, must likewise stay a full line away from the nready and
// idlers words that siblings poll.
func TestTaskCounterLayout(t *testing.T) {
	const line = 64
	var sh shard
	tasks := unsafe.Offsetof(sh.tasks)
	if size := unsafe.Sizeof(sh.tasks); size != 8 {
		t.Fatalf("shard.tasks is %d bytes, want one word", size)
	}
	typ := reflect.TypeOf(&sh).Elem()
	named := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || f.Name == "tasks" {
			continue
		}
		named++
		if end := f.Offset + f.Type.Size(); end > tasks-(line-8) && f.Offset < tasks+line {
			t.Errorf("shard.%s [%d,%d) can share a cache line with shard.tasks at %d", f.Name, f.Offset, end, tasks)
		}
	}
	for _, must := range []string{"mu", "nready", "idlers", "intake", "drainPending"} {
		if _, ok := typ.FieldByName(must); !ok {
			t.Errorf("shard has no field %s; update the guard", must)
		}
	}
	if named < 5 {
		t.Fatalf("walked %d shard fields", named)
	}
	ready := unsafe.Offsetof(sh.ready)
	for name, off := range map[string]uintptr{"nready": unsafe.Offsetof(sh.nready), "idlers": unsafe.Offsetof(sh.idlers)} {
		if d := int64(off) - int64(ready); d < line && d > -line {
			t.Errorf("shard.ready at %d is within a cache line of shard.%s at %d", ready, name, off)
		}
	}
}

// TestShardHeaderLineIsConstant keeps shard's first cache line free of
// anything written after New. A shard is larger than the 4 096-byte page Go
// relies on to fault nil dereferences, so every access to a field past that
// offset — idlers in offerSteal, nready in trySteal's probe, the intake ring,
// tasks, drainPending, all read by other shards' workers — compiles to an
// explicit nil check that loads byte 0 of the shard. With the lock word on
// that line, each sibling probe took a coherence miss and the owner's next
// lock operation fetched the line back: flood ran 1.4× slower at seed 1 on 2
// vCPUs.
func TestShardHeaderLineIsConstant(t *testing.T) {
	const line = 64
	constant := map[string]bool{"r": true, "id": true, "workers": true, "firstWorker": true,
		"eng": true, "workCond": true, "tenants": true}
	const why = "a shard field at offset ≥ 4 096 gets an explicit nil check, which loads byte 0, " +
		"so a sibling's probe of idlers or nready reads this line (written per task, it cost flood 1.4×)"
	var sh shard
	typ := reflect.TypeOf(&sh).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name != "_" && f.Offset < line && !constant[f.Name] {
			t.Errorf("shard.%s at byte %d is on the first cache line, where only fields New writes once may sit: %s",
				f.Name, f.Offset, why)
		}
	}
	if mu := unsafe.Offsetof(sh.mu); mu < line {
		t.Errorf("shard.mu at byte %d must start at byte %d or later: %s", mu, line, why)
	}
}

// checkTaskCounters is the per-operation oracle of the interleaving below: in
// Manual mode every reservation is absorbed at once, so the shard counters sum
// to exactly the absorbed backlog, and since each entry retires from the
// counter it was counted on no counter is ever negative, wherever migrations,
// steals and deportations have carried the tenants since.
func checkTaskCounters(t *testing.T, r *Runtime, op string) {
	t.Helper()
	var sum, backlog int64
	for _, sh := range r.shards {
		c := sh.tasks.Load()
		if c < 0 {
			t.Fatalf("after %s: shard %d task counter %d", op, sh.id, c)
		}
		sum += c
		for tn := range sh.tenants {
			backlog += int64(tn.n)
		}
	}
	if sum != backlog {
		t.Fatalf("after %s: task counters sum to %d, backlogs hold %d", op, sum, backlog)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after %s: %v", op, err)
	}
}

// TestTaskCountersFollowBacklogs drives a seeded Manual-mode interleaving of
// submits, dispatches, completions, weight changes, Rebalance, TrySteal,
// Deport/Admit and Unregister over three shards and checks the counters after
// every single operation. Tenants with a backlog do change shards here, so
// entries are retired under another shard's lock than the one they were
// counted on — the case the per-entry counter exists for.
func TestTaskCountersFollowBacklogs(t *testing.T) {
	clock := NewFakeClock()
	r := New(Config{Workers: 3, Manual: true, Clock: clock,
		Quantum:  simtime.Millisecond,
		Sharding: ShardingConfig{Shards: 3, Steal: true},
		Intake:   IntakeConfig{QueueCap: 4}})
	defer r.Close()
	rng := rand.New(rand.NewSource(20))
	var tenants []*Tenant
	for i := 0; i < 9; i++ {
		tn, err := r.Register("t", float64(1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	inflight := make([]*Dispatched, r.Workers())
	busy := func(tn *Tenant) bool {
		for _, d := range inflight {
			if d != nil && d.Tenant() == tn {
				return true
			}
		}
		return false
	}
	var deports, carried int
	for step := 0; step < 4000; step++ {
		clock.Advance(simtime.Duration(1 + rng.Intn(300)))
		i := rng.Intn(len(tenants))
		tn := tenants[i]
		op := "submit"
		switch k := rng.Intn(20); {
		case k < 8:
			if err := tn.SubmitTask(Once(func() {}), NoWait()); err != nil && !errors.Is(err, ErrBackpressure) {
				t.Fatalf("step %d: submit: %v", step, err)
			}
		case k < 12:
			op = "dispatch"
			if w := rng.Intn(len(inflight)); inflight[w] == nil {
				inflight[w] = r.Dispatch(w)
			}
		case k < 15:
			op = "complete"
			if w := rng.Intn(len(inflight)); inflight[w] != nil {
				inflight[w].Complete(rng.Intn(4) > 0)
				inflight[w] = nil
			}
		case k == 15:
			op = "setweight"
			if err := r.SetWeight(tn, float64(1+rng.Intn(9))); err != nil {
				t.Fatalf("step %d: setweight: %v", step, err)
			}
		case k == 16:
			op = "rebalance"
			r.Rebalance()
		case k == 17:
			op = "steal"
			r.TrySteal(rng.Intn(r.Workers()))
		case k == 18:
			op = "deport+admit"
			dep, err := r.Deport(tn)
			if errors.Is(err, ErrMigrationRace) {
				break // mid-slice
			}
			if err != nil {
				t.Fatalf("step %d: deport: %v", step, err)
			}
			checkTaskCounters(t, r, "deport")
			deports++
			carried += len(dep.Backlog)
			if tenants[i], err = r.Admit(dep); err != nil {
				t.Fatalf("step %d: admit: %v", step, err)
			}
		default:
			op = "unregister+register"
			if busy(tn) {
				break // its in-flight record would outlive the handle below
			}
			if err := r.Unregister(tn); err != nil {
				t.Fatalf("step %d: unregister: %v", step, err)
			}
			checkTaskCounters(t, r, "unregister")
			var err error
			if tenants[i], err = r.Register("t", float64(1+rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
		checkTaskCounters(t, r, op)
	}
	if r.Migrations() == 0 || r.Steals() == 0 || deports == 0 || carried == 0 {
		t.Fatalf("interleaving moved too little: %d migrations, %d steals, %d deports carrying %d tasks",
			r.Migrations(), r.Steals(), deports, carried)
	}
}
