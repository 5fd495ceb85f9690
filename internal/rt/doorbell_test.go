package rt

// White-box tests of the doorbell hand-over (DESIGN.md §9): a submit that
// finds its shard's lock held leaves the doorbell up and returns, and whoever
// holds the lock answers it on release. The holders are stopped inside their
// hold by a gate in the shard's policy, which every one of them calls into.

import (
	"sync/atomic"
	"testing"
	"time"

	"sfsched/internal/core"
	"sfsched/internal/engine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// deadlockDeadline bounds every wait below; nothing else in this file depends
// on wall-clock time.
const deadlockDeadline = 20 * time.Second

func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(deadlockDeadline):
		t.Fatalf("deadlocked waiting for %s", what)
		panic("unreachable")
	}
}

// gate stops the next call of one named policy method — made with the shard
// lock held — until the test releases it.
type gate struct {
	armed            atomic.Pointer[string]
	entered, release chan struct{}
}

func newGate() *gate { return &gate{entered: make(chan struct{}), release: make(chan struct{})} }

func (g *gate) arm(op string) { g.armed.Store(&op) }

func (g *gate) at(op string) {
	if p := g.armed.Load(); p != nil && *p == op && g.armed.CompareAndSwap(p, nil) {
		select {
		case g.entered <- struct{}{}:
			<-g.release
		case <-g.release: // closed: the test is over
		}
	}
}

// gatedSFS is core's SFS with the gate on the methods the holders under test
// reach: promoted methods keep every capability the engine discovers.
type gatedSFS struct {
	*core.SFS
	g *gate
}

func (s *gatedSFS) Pick(cpu int, now simtime.Time) *sched.Thread {
	s.g.at("pick")
	return s.SFS.Pick(cpu, now)
}

func (s *gatedSFS) Add(t *sched.Thread, now simtime.Time) error {
	s.g.at("add " + t.Name)
	return s.SFS.Add(t, now)
}

// AddBatch is how a drain admits (a batch of one included): gated like Add.
func (s *gatedSFS) AddBatch(ts []*sched.Thread, now simtime.Time) error {
	for _, t := range ts {
		s.g.at("add " + t.Name)
	}
	return s.SFS.AddBatch(ts, now)
}

func (s *gatedSFS) InterimCharge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	s.g.at("interim")
	s.SFS.InterimCharge(t, ran, now)
}

func (s *gatedSFS) FrameLead(t *sched.Thread) float64 {
	s.g.at("lead")
	return s.SFS.FrameLead(t)
}

func (s *gatedSFS) SetFrameLead(t *sched.Thread, lead float64) {
	s.g.at("setlead")
	s.SFS.SetFrameLead(t, lead)
}

// heldWorld is the scene every sub-test starts from: shard 0's only worker is
// inside the hog's slice (a preemptible task that never polls, so nothing but
// the test ends it), idle is a blocked tenant of shard 0, Preempt is armed.
type heldWorld struct {
	t         *testing.T
	r         *Runtime
	g         *gate
	hog, idle *Tenant
	hogs      int           // workers occupied
	started   chan struct{} // a hog slice began
	step      chan bool     // ends one hog's slice: true = task finished
	ran       chan struct{} // idle's task ran
	quit      chan struct{} // closed when the test is over
}

func newHeldWorld(t *testing.T, cfg Config) *heldWorld {
	w := &heldWorld{t: t, g: newGate(), started: make(chan struct{}), step: make(chan bool), ran: make(chan struct{}), quit: make(chan struct{})}
	cfg.Workers, cfg.Preempt, cfg.RebalanceEvery = max(cfg.Shards, 1), true, -1
	cfg.Quantum, cfg.EnforceTick = 60*simtime.Minute, 60*simtime.Minute // the background enforcer never fires; Enforce() is called by hand
	cfg.Policy = func(cpus int) sched.Scheduler {
		return &gatedSFS{SFS: core.New(cpus, core.WithQuantum(cfg.Quantum)), g: w.g}
	}
	w.r = New(cfg)
	t.Cleanup(func() {
		close(w.g.release) // a holder still at the gate, a hog still in its slice: after a failure
		close(w.quit)
		w.r.Close()
	})
	w.hog, w.idle = w.register("hog", 0), w.register("idle", 0)
	w.occupy(w.hog)
	return w
}

// register adds a tenant and puts it on the given shard, whatever placement
// chose.
func (w *heldWorld) register(name string, shard int) *Tenant {
	tn, err := w.r.Register(name, 1)
	if err != nil {
		w.t.Fatal(err)
	}
	if from := tn.sh.Load(); from.id != shard && !w.r.migrate(tn, from, w.r.shards[shard]) {
		w.t.Fatalf("could not place %s on shard %d", name, shard)
	}
	return tn
}

// occupy puts tn's shard's worker inside a slice only w.step ends.
func (w *heldWorld) occupy(tn *Tenant) {
	hog := func(SliceCtx) bool {
		select {
		case w.started <- struct{}{}:
		case <-w.quit:
			return true
		}
		select {
		case done := <-w.step:
			return done
		case <-w.quit:
			return true
		}
	}
	w.hogs++
	if err := tn.SubmitTask(nil, Preemptible(hog)); err != nil {
		w.t.Fatal(err)
	}
	await(w.t, w.started, "the hog's slice")
}

// submitWhileHeld is the property: with shard 0's lock held, an outsider's
// submit to the idle tenant returns, the lock still held.
func (w *heldWorld) submitWhileHeld() {
	w.t.Helper()
	sh := w.r.shards[0]
	done := make(chan error, 1)
	go func() { done <- w.idle.SubmitTask(Once(func() { close(w.ran) }), NoWait()) }()
	if err := await(w.t, done, "SubmitTask to return while the shard lock is held"); err != nil {
		w.t.Fatal(err)
	}
	if sh.mu.TryLock() {
		sh.mu.Unlock()
		w.t.Fatal("the shard lock was not held while the submit ran")
	}
	if !sh.drainPending.Load() {
		w.t.Fatal("the submit left no doorbell for the holder")
	}
}

// answered checks what the holder owed once it has let go, with no further
// submit: the woken tenant is admitted and the hog's slice flagged. Then the
// hog is let go and the woken task must run.
func (w *heldWorld) answered() {
	w.t.Helper()
	sh := w.r.shards[0]
	sh.mu.Lock()
	admitted, flagged := w.idle.inSched, len(sh.active) == 1 && sh.active[0].preempted.Load()
	sh.mu.Unlock()
	if !admitted || !flagged {
		w.t.Fatalf("after the holder let go: woken tenant admitted=%v, running slice flagged=%v", admitted, flagged)
	}
	for ; w.hogs > 0; w.hogs-- {
		w.step <- true
	}
	await(w.t, w.ran, "the woken tenant's task")
	w.r.Drain()
	if err := w.r.CheckInvariants(); err != nil {
		w.t.Fatal(err)
	}
}

// hold runs op, which must stop at the named gate inside its hold of shard
// 0's lock, submits meanwhile, lets op finish and checks the hand-over.
func (w *heldWorld) hold(gate string, op func()) {
	w.t.Helper()
	w.g.arm(gate)
	done := make(chan struct{})
	go func() { op(); close(done) }()
	await(w.t, w.g.entered, "the holder to reach its hold")
	w.submitWhileHeld()
	w.g.release <- struct{}{}
	await(w.t, done, "the holder to let go")
	w.answered()
}

// holdPastSweep is hold for the two-lock transfers, which end by sweeping
// shard 0's ring themselves: only a submit that lands after the sweep has read
// the ring's tail is left to the release. So op is stopped twice — mid
// transfer, where a decoy wake-up goes into the ring, and inside the sweep at
// the decoy's admission, where the submit under test goes in behind it.
func (w *heldWorld) holdPastSweep(op func()) {
	w.t.Helper()
	decoy := w.register("decoy", 0)
	w.g.arm("lead")
	done := make(chan struct{})
	go func() { op(); close(done) }()
	await(w.t, w.g.entered, "the transfer to reach its hold")
	if err := decoy.SubmitTask(Once(func() {}), NoWait()); err != nil {
		w.t.Fatal(err)
	}
	w.g.arm("add decoy")
	w.g.release <- struct{}{}
	await(w.t, w.g.entered, "the transfer's sweep to reach the decoy")
	w.submitWhileHeld()
	w.g.release <- struct{}{}
	await(w.t, done, "the transfer to let go")
	w.answered()
}

// TestSubmitNeverWaitsForShardLock pins ROADMAP item 3's outsider half: a
// SubmitTask from outside the worker pool does not wait for a shard lock that
// somebody holds, and what it would have done under the lock — admit the
// wake-up, raise the preemption flag on the slice it out-ranks — is done by
// the holder when it lets go, with the shard's worker mid-slice throughout.
// One sub-test per kind of holder. At the parent each submit blocks until the
// gate opens, which never happens: the deadline fails it.
func TestSubmitNeverWaitsForShardLock(t *testing.T) {
	t.Run("worker", func(t *testing.T) {
		w := newHeldWorld(t, Config{})
		w.g.arm("pick")
		w.step <- false // the slice ends unfinished: the worker completes it and picks again
		await(t, w.g.entered, "the worker to reach its pick")
		w.submitWhileHeld()
		w.g.release <- struct{}{}
		await(t, w.started, "the hog's next slice") // dispatched, released, and only then run
		w.answered()
	})
	t.Run("Enforce", func(t *testing.T) {
		w := newHeldWorld(t, Config{Enforce: true})
		for start := w.r.clock.Now(); w.r.clock.Now() == start; { // an installment needs a clock tick of service
		}
		w.hold("interim", w.r.Enforce)
	})
	t.Run("TrySteal", func(t *testing.T) {
		w := newHeldWorld(t, Config{Shards: 2, Steal: true})
		w.occupy(w.register("hog2", 1)) // no idle thief: the steal below is the test's
		ready := w.register("ready", 0)
		if err := ready.SubmitTask(Once(func() {})); err != nil {
			t.Fatal(err)
		}
		w.holdPastSweep(func() {
			if !w.r.TrySteal(1) {
				t.Error("nothing stolen")
			}
		})
	})
	t.Run("migrate", func(t *testing.T) {
		w := newHeldWorld(t, Config{Shards: 2})
		mover := w.register("mover", 0)
		w.holdPastSweep(func() {
			if !w.r.migrate(mover, w.r.shards[0], w.r.shards[1]) {
				t.Error("not migrated")
			}
		})
	})
	t.Run("Stats", func(t *testing.T) {
		// Stats takes the shard locks in order, so holding shard 1's stops it
		// inside its hold of shard 0's.
		w := newHeldWorld(t, Config{Shards: 2})
		sh0, sh1 := w.r.shards[0], w.r.shards[1]
		sh1.mu.Lock()
		done := make(chan struct{})
		go func() { w.r.Stats(); close(done) }()
		for sh0.mu.TryLock() {
			sh0.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		w.submitWhileHeld()
		sh1.mu.Unlock()
		await(t, done, "Stats to let go")
		w.answered()
	})
	t.Run("Deport", func(t *testing.T) {
		w := newHeldWorld(t, Config{})
		leaver := w.register("leaver", 0)
		w.hold("lead", func() {
			if _, err := w.r.Deport(leaver); err != nil {
				t.Error(err)
			}
		})
	})
	t.Run("Admit", func(t *testing.T) {
		w := newHeldWorld(t, Config{})
		dep, err := w.r.Deport(w.register("leaver", 0))
		if err != nil || !dep.HasLead {
			t.Fatalf("Deport: %v, lead carried: %v", err, dep.HasLead)
		}
		w.hold("setlead", func() {
			if _, err := w.r.Admit(dep); err != nil {
				t.Error(err)
			}
		})
	})
}

// TestOneTokenPingPong is the lost-wake-up soak of the hand-over: one task
// hops between two single-worker shards, each hop waking the idle tenant on
// the other side and completing, so every hop parks one worker while the
// other is being woken — the submit races the park each time, and with one
// token no later doorbell winner can cover a lost wake-up. First between two
// runtimes, then between two shards of one runtime with Steal armed (the park
// then goes through the steal round's unlock and relock first).
func TestOneTokenPingPong(t *testing.T) {
	const hops = 200_000
	play := func(t *testing.T, a, b *Tenant) {
		var n atomic.Int64
		done := make(chan struct{})
		var hop [2]Task
		side := [2]*Tenant{a, b}
		for i := range hop {
			i := i
			hop[i] = Once(func() {
				if n.Add(1) == hops {
					close(done)
				} else if err := side[1-i].SubmitTask(hop[1-i]); err != nil {
					t.Error(err)
					close(done)
				}
			})
		}
		if err := a.SubmitTask(hop[0]); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(6 * deadlockDeadline):
			t.Fatalf("lost wake-up: the token stopped after %d of %d hops", n.Load(), hops)
		}
	}
	register := func(t *testing.T, r *Runtime, name string) *Tenant {
		tn, err := r.Register(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	t.Run("runtimes", func(t *testing.T) {
		ra, rb := New(Config{Workers: 1, Preempt: true}), New(Config{Workers: 1, Preempt: true})
		defer ra.Close()
		defer rb.Close()
		play(t, register(t, ra, "a"), register(t, rb, "b"))
	})
	t.Run("shards", func(t *testing.T) {
		r := New(Config{Workers: 2, Shards: 2, Preempt: true, Steal: true})
		defer r.Close()
		play(t, register(t, r, "a"), register(t, r, "b"))
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// scriptedClock returns whatever instant the test last stored — stalled or
// backwards too, which FakeClock refuses.
type scriptedClock struct{ now atomic.Int64 }

func (c *scriptedClock) Now() simtime.Time { return simtime.Time(c.now.Load()) }

type admitLog struct{ at []simtime.Time }

func (l *admitLog) Record(e engine.Event) {
	if e.Kind == engine.KindAdmit {
		l.at = append(l.at, e.Now)
	}
}

// TestHolderDrainNeverStepsBack is TestDoorbellDrainNeverStepsBack for the
// holder's drain: the instant unlock reads follows the shard's last hold in
// real time, but a clock that stepped back in between must not date the
// admission before it.
func TestHolderDrainNeverStepsBack(t *testing.T) {
	clock := &scriptedClock{}
	w := newHeldWorld(t, Config{Clock: clock}) // the hog's slice is dispatched at 0
	rec := &admitLog{}
	sh := w.r.shards[0]
	clock.now.Store(100)
	sh.mu.Lock() // the test is the holder, and its hold is the shard's last instant
	sh.eng.SetRecorder(rec)
	sh.drainLocked(clock.Now(), &postActions{sh: sh})
	clock.now.Store(50)
	w.submitWhileHeld()
	sh.unlock()
	clock.now.Store(200)
	w.answered()
	if len(rec.at) != 1 || rec.at[0] != 100 {
		t.Fatalf("wake-up admitted at %v, want one admission at the shard's last instant 100", rec.at)
	}
}

// TestManualClockAnomalies drives submit → drain → dispatch → settle in
// Manual mode on a clock that stalls and steps backwards between any two
// steps: no charge is negative, no tenant's service or start tag and no
// shard's lastNow moves back, the invariants hold after every step, and an
// enforcement deadline set after a backward step is honoured on time.
func TestManualClockAnomalies(t *testing.T) {
	clock := &scriptedClock{}
	r := New(Config{Workers: 2, Shards: 2, Manual: true, Preempt: true, Enforce: true,
		Clock: clock, QueueCap: 4, Quantum: 10 * simtime.Millisecond})
	defer r.Close()
	var tenants []*Tenant
	for i := 0; i < 6; i++ {
		tn, err := r.Register("t", float64(1+i%3))
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	type seen struct {
		service simtime.Duration
		start   float64
	}
	last := make([]seen, len(tenants))
	lastNow := make([]simtime.Time, len(r.shards))
	inFlight := make([]*Dispatched, r.Workers())
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	backwards := 0
	for step := 0; step < 5000; step++ {
		switch now := clock.now.Load(); next(4) {
		case 0: // stall
		case 1:
			back := int64(next(3000))
			if back > 0 && now-back >= 0 {
				clock.now.Store(now - back)
				backwards++
			}
		default:
			clock.now.Store(now + int64(next(2000)))
		}
		switch op, w := next(4), next(len(inFlight)); {
		case op == 0:
			tn := tenants[next(len(tenants))]
			if err := tn.SubmitTask(Once(func() {}), NoWait()); err != nil && err != ErrBackpressure {
				t.Fatal(err)
			}
		case op == 1:
			r.Enforce()
		case inFlight[w] == nil:
			inFlight[w] = r.Dispatch(w)
		default:
			if ran := inFlight[w].Complete(next(2) == 0); ran < 0 {
				t.Fatalf("step %d: negative charge %v", step, ran)
			}
			inFlight[w] = nil
		}
		for i, tn := range tenants {
			if th := tn.th; th.Service < last[i].service || th.Start < last[i].start {
				t.Fatalf("step %d: tenant %d went back: service %v → %v, start tag %g → %g",
					step, i, last[i].service, th.Service, last[i].start, th.Start)
			} else {
				last[i] = seen{th.Service, th.Start}
			}
		}
		for i, sh := range r.shards {
			if sh.lastNow < lastNow[i] {
				t.Fatalf("step %d: shard %d lastNow %v → %v", step, i, lastNow[i], sh.lastNow)
			}
			lastNow[i] = sh.lastNow
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if backwards < 100 {
		t.Fatalf("the clock stepped back %d times; the test walked nothing", backwards)
	}
	// A slice dispatched after a backward step expires at its own boundary:
	// whether it is due depends on its deadline and the clock alone, not on
	// how far an earlier pass had already read.
	for _, d := range inFlight {
		if d != nil {
			d.Complete(true)
		}
	}
	const top = int64(60 * simtime.Minute)
	clock.now.Store(top)
	r.Enforce()
	clock.now.Store(top - int64(30*simtime.Millisecond))
	tn := tenants[0]
	if err := tn.SubmitTask(Once(func() {}), NoWait()); err != nil && err != ErrBackpressure {
		t.Fatal(err)
	}
	d := r.Dispatch(tn.sh.Load().firstWorker)
	if d == nil {
		t.Fatal("nothing dispatchable on a shard with a backlogged tenant")
	}
	clock.now.Store(clock.now.Load() + int64(d.Slice()+DefaultEnforceTick))
	r.Enforce()
	if !d.Detached() {
		t.Fatalf("a %v slice dispatched after a backward step is still on its lane a tick past its deadline", d.Slice())
	}
	d.Complete(true)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
