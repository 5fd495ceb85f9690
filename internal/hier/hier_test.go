package hier

import (
	"math"
	"testing"

	"sfsched/internal/machine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/workload"
)

func newMachine(t *testing.T, p int) (*machine.Machine, *Hier) {
	t.Helper()
	h := New(p, 20*simtime.Millisecond)
	m := machine.New(machine.Config{CPUs: p, Scheduler: h, Seed: 1})
	return m, h
}

// spawnInClass creates an Inf task routed to the given class.
func spawnInClass(m *machine.Machine, h *Hier, c *Class, name string, w float64, beh machine.Behavior) *machine.Task {
	k := m.Spawn(machine.SpawnConfig{Name: name, Weight: w, Behavior: beh})
	h.Assign(k.Thread(), c)
	return k
}

func TestInterClassProportions(t *testing.T) {
	// Classes 2:1, each with two compute-bound threads, on 2 CPUs:
	// class rates 4/3 : 2/3 CPUs.
	m, h := newMachine(t, 2)
	gold := h.MustAddClass("gold", 2)
	bronze := h.MustAddClass("bronze", 1)
	for i := 0; i < 2; i++ {
		spawnInClass(m, h, gold, "g", 1, workload.Inf())
		spawnInClass(m, h, bronze, "b", 1, workload.Inf())
	}
	m.Run(simtime.Time(30 * simtime.Second))
	ratio := gold.Service() / bronze.Service()
	if math.Abs(ratio-2) > 0.1 {
		t.Fatalf("class ratio %.3f, want ~2", ratio)
	}
	if total := gold.Service() + bronze.Service(); math.Abs(total-60) > 0.5 {
		t.Fatalf("total %.2f, want 60 (work conserving)", total)
	}
}

func TestClassCapAtRunnableThreads(t *testing.T) {
	// A class with one thread cannot use more than one CPU no matter its
	// weight: weight 100 vs 1, but the heavy class has a single thread.
	m, h := newMachine(t, 2)
	heavy := h.MustAddClass("heavy", 100)
	light := h.MustAddClass("light", 1)
	spawnInClass(m, h, heavy, "h", 1, workload.Inf())
	spawnInClass(m, h, light, "l1", 1, workload.Inf())
	spawnInClass(m, h, light, "l2", 1, workload.Inf())
	m.Run(simtime.Time(20 * simtime.Second))
	if math.Abs(heavy.Service()-20) > 0.5 {
		t.Fatalf("heavy class %.2fs, want ~20 (one CPU)", heavy.Service())
	}
	if math.Abs(light.Service()-20) > 0.5 {
		t.Fatalf("light class %.2fs, want ~20 (the other CPU)", light.Service())
	}
}

func TestIntraClassWeights(t *testing.T) {
	// Within a class, thread weights are honoured by the thread-level
	// water-fill.
	m, h := newMachine(t, 2)
	c := h.MustAddClass("only", 1)
	a := spawnInClass(m, h, c, "a", 3, workload.Inf())
	b := spawnInClass(m, h, c, "b", 1, workload.Inf())
	cth := spawnInClass(m, h, c, "c", 1, workload.Inf())
	dth := spawnInClass(m, h, c, "d", 1, workload.Inf())
	m.Run(simtime.Time(30 * simtime.Second))
	ra := a.Thread().Service.Seconds() / b.Thread().Service.Seconds()
	if math.Abs(ra-3) > 0.2 {
		t.Fatalf("intra-class ratio %.3f, want ~3", ra)
	}
	// The three weight-1 threads split what remains evenly.
	if d := math.Abs(cth.Thread().Service.Seconds() - dth.Thread().Service.Seconds()); d > 1 {
		t.Fatalf("equal-weight threads diverged by %.2fs", d)
	}
}

func TestClassIsolation(t *testing.T) {
	// Stuffing one class with threads must not change the other class's
	// aggregate: the web-hosting guarantee the paper motivates.
	run := func(rogue int) float64 {
		m, h := newMachine(t, 2)
		gold := h.MustAddClass("gold", 1)
		bronze := h.MustAddClass("bronze", 1)
		for i := 0; i < 2; i++ {
			spawnInClass(m, h, gold, "g", 1, workload.Inf())
		}
		for i := 0; i < 2+rogue; i++ {
			spawnInClass(m, h, bronze, "b", 1, workload.Inf())
		}
		m.Run(simtime.Time(20 * simtime.Second))
		return gold.Service()
	}
	quiet := run(0)
	stuffed := run(20)
	if math.Abs(quiet-stuffed) > 0.05*quiet {
		t.Fatalf("gold class lost CPU to bronze's swarm: %.2f vs %.2f", quiet, stuffed)
	}
}

func TestDefaultClass(t *testing.T) {
	m, h := newMachine(t, 1)
	k := m.Spawn(machine.SpawnConfig{Name: "loose", Behavior: workload.Inf()})
	m.Run(simtime.Time(simtime.Second))
	if h.ClassOf(k.Thread()).Name() != "default" {
		t.Fatal("unassigned thread not in default class")
	}
	if k.Thread().Service != simtime.Second {
		t.Fatalf("service %v", k.Thread().Service)
	}
}

func TestErrorsAndAccessors(t *testing.T) {
	h := New(2, 0)
	if h.Name() != "hier-SFS" || h.NumCPU() != 2 {
		t.Fatal("accessors")
	}
	if _, err := h.AddClass("default", 1); err == nil {
		t.Fatal("duplicate class must fail")
	}
	if _, err := h.AddClass("bad", -1); err == nil {
		t.Fatal("bad class weight must fail")
	}
	c := h.MustAddClass("ok", 2)
	if err := h.SetClassWeight(c, 0); err == nil {
		t.Fatal("zero class weight must fail")
	}
	if err := h.SetClassWeight(c, 5); err != nil {
		t.Fatal(err)
	}
	if c.Weight() != 5 {
		t.Fatal("weight not updated")
	}
	if len(h.Classes()) != 2 {
		t.Fatalf("classes %d", len(h.Classes()))
	}
	th := &sched.Thread{ID: 1, Weight: 1, Phi: 1, CPU: sched.NoCPU, LastCPU: sched.NoCPU}
	if err := h.Add(th, 0); err != nil {
		t.Fatal(err)
	}
	if h.Runnable() != 1 {
		t.Fatal("runnable")
	}
	if got := h.Timeslice(th, 0); got != 200*simtime.Millisecond {
		t.Fatalf("timeslice %v", got)
	}
}

// TestMigrationLandsInDestinationClass pins what crossing instances means
// (shards of one runtime, machines of a cluster): the class table does not
// travel, the frame lead does.
func TestMigrationLandsInDestinationClass(t *testing.T) {
	src, dst := New(2, 0), New(2, 0)
	gold := src.MustAddClass("gold", 3)
	silver := dst.MustAddClass("silver", 2)
	mk := func(id int) *sched.Thread {
		return &sched.Thread{ID: id, Weight: 1, Phi: 1, CPU: sched.NoCPU, LastCPU: sched.NoCPU}
	}
	mover, stays, known, resident := mk(1), mk(2), mk(3), mk(4)
	src.Assign(mover, gold)
	src.Assign(known, gold)
	dst.Assign(known, silver)
	for _, th := range []*sched.Thread{mover, stays, known} {
		if err := src.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Add(resident, 0); err != nil {
		t.Fatal(err)
	}
	dst.Charge(resident, 70*simtime.Millisecond, 0) // the two frames differ
	src.Charge(mover, 30*simtime.Millisecond, 0)
	src.Charge(known, 50*simtime.Millisecond, 0)
	for _, th := range []*sched.Thread{mover, known} {
		if err := src.Remove(th, 0); err != nil {
			t.Fatal(err)
		}
		lead := src.FrameLead(th)
		dst.SetFrameLead(th, lead)
		if err := dst.Add(th, 0); err != nil {
			t.Fatal(err)
		}
		if got := th.Start - dst.VirtualTime(); math.Abs(got-lead) > 1e-12 || lead <= 0 {
			t.Fatalf("%v: lead %g on the source, %g after the move", th, lead, got)
		}
	}
	if c := dst.ClassOf(mover); c.Name() != "default" {
		t.Fatalf("unassigned on the destination, yet in class %q", c.Name())
	}
	if c := dst.ClassOf(known); c != silver {
		t.Fatalf("assigned to silver on the destination, yet in class %q", c.Name())
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := src.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetClassWeightTakesEffect(t *testing.T) {
	m, h := newMachine(t, 2)
	a := h.MustAddClass("a", 1)
	b := h.MustAddClass("b", 1)
	for i := 0; i < 2; i++ {
		spawnInClass(m, h, a, "a", 1, workload.Inf())
		spawnInClass(m, h, b, "b", 1, workload.Inf())
	}
	m.At(simtime.Time(10*simtime.Second), func(now simtime.Time) {
		if err := h.SetClassWeight(a, 3); err != nil {
			t.Errorf("SetClassWeight: %v", err)
		}
	})
	m.Run(simtime.Time(30 * simtime.Second))
	// Phase 1 (0-10s): one CPU each. Phase 2 (10-30s): 40 CPU-seconds
	// split 3:1 between the classes.
	ratio := a.Service() / b.Service()
	if ratio < 1.5 {
		t.Fatalf("class reweight had no effect: ratio %.3f", ratio)
	}
}

// TestFlattenedHierarchicalGMS asserts the exact allocation the flattened
// design was built for: silver (weight 2 of 6 on 4 CPUs → 1.33 CPUs) runs
// big (w=4) and small (w=1); hierarchical GMS caps big at one physical CPU
// and gives small the 0.33-CPU remainder — a split the naive
// class-then-thread composition cannot express.
func TestFlattenedHierarchicalGMS(t *testing.T) {
	m, h := newMachine(t, 4)
	gold := h.MustAddClass("gold", 3)
	silver := h.MustAddClass("silver", 2)
	bronze := h.MustAddClass("bronze", 1)
	spawnInClass(m, h, gold, "g1", 1, workload.Inf())
	spawnInClass(m, h, gold, "g2", 1, workload.Inf())
	big := spawnInClass(m, h, silver, "big", 4, workload.Inf())
	small := spawnInClass(m, h, silver, "small", 1, workload.Inf())
	for i := 0; i < 8; i++ {
		spawnInClass(m, h, bronze, "b", 1, workload.Inf())
	}
	m.Run(simtime.Time(30 * simtime.Second))
	// φ values are the hierarchical GMS rates.
	if math.Abs(big.Thread().Phi-1.0) > 1e-9 || math.Abs(small.Thread().Phi-1.0/3) > 1e-9 {
		t.Fatalf("rates big=%g small=%g, want 1 and 1/3", big.Thread().Phi, small.Thread().Phi)
	}
	// Delivered service tracks the rates.
	if got := big.Thread().Service.Seconds(); math.Abs(got-30) > 1.0 {
		t.Fatalf("big got %.2fs, want ~30 (one full CPU)", got)
	}
	if got := small.Thread().Service.Seconds(); math.Abs(got-10) > 1.0 {
		t.Fatalf("small got %.2fs, want ~10 (0.33 CPU)", got)
	}
	// Class aggregates: 2.0 : 1.33 : 0.67 CPUs.
	if math.Abs(gold.Service()-60) > 1.5 || math.Abs(silver.Service()-40) > 1.5 ||
		math.Abs(bronze.Service()-20) > 1.5 {
		t.Fatalf("class services %.1f/%.1f/%.1f, want 60/40/20",
			gold.Service(), silver.Service(), bronze.Service())
	}
	if r := silver.Rate(); math.Abs(r-4.0/3) > 1e-9 {
		t.Fatalf("silver rate %g, want 4/3", r)
	}
}
