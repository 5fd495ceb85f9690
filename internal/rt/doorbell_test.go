package rt

// White-box tests of the doorbell hand-over (DESIGN.md §9): a submit pushes
// onto its shard's ring, leaves the doorbell up and returns, whoever holds the
// shard's lock, and the shard's own side answers it — here the running task's
// next Preempted poll. The holders are stopped inside their hold by a gate in
// the shard's policy, which every one of them calls into.

import (
	"runtime"
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

func (s *gatedSFS) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	s.g.at("charge")
	s.SFS.Charge(t, ran, now)
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
// inside the hog's slice (a preemptible task that polls only when the test
// asks, so nothing but the test ends it), idle is a blocked tenant of shard 0,
// Preempt is armed.
type heldWorld struct {
	t         *testing.T
	r         *Runtime
	g         *gate
	hog, idle *Tenant
	hogs      int            // workers occupied
	started   chan struct{}  // a hog slice began
	step      chan bool      // ends one hog's slice: true = task finished
	poll      chan chan bool // has hog's slice poll Preempted and send the answer
	ran       chan struct{}  // idle's task ran
	quit      chan struct{}  // closed when the test is over
}

func newHeldWorld(t *testing.T, cfg Config) *heldWorld {
	w := &heldWorld{t: t, g: newGate(), started: make(chan struct{}), step: make(chan bool),
		poll: make(chan chan bool), ran: make(chan struct{}), quit: make(chan struct{})}
	cfg.Workers, cfg.Preempt = max(cfg.Sharding.Shards, 1), true
	cfg.Quantum, cfg.Enforcement.Tick = 60*simtime.Minute, 60*simtime.Minute // the background enforcer never fires; Enforce() is called by hand
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
	// Every worker parks first: a thief still in its first steal round sees
	// shard 0's doorbell and could take the hog before shard 0's worker drains.
	for _, sh := range w.r.shards {
		for deadline := time.Now().Add(deadlockDeadline); sh.idlers.Load() < int64(sh.workers); {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d's workers never parked", sh.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
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

// occupy puts tn's shard's worker inside a slice only w.step ends. Only the
// first hog, w.hog, answers w.poll.
func (w *heldWorld) occupy(tn *Tenant) {
	poll := w.poll
	if tn != w.hog {
		poll = nil
	}
	hog := func(ctx SliceCtx) bool {
		select {
		case w.started <- struct{}{}:
		case <-w.quit:
			return true
		}
		for {
			select {
			case done := <-w.step:
				return done
			case reply := <-poll:
				reply <- ctx.Preempted()
			case <-w.quit:
				return true
			}
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
		w.t.Fatal("the submit left no doorbell for the owner")
	}
}

// pollHog has the hog's slice poll Preempted once and returns the answer.
func (w *heldWorld) pollHog() bool {
	w.t.Helper()
	reply := make(chan bool)
	w.poll <- reply
	return await(w.t, reply, "the hog's poll")
}

// answered checks what the owner's poll does once the holder has let go, with
// no further submit: the woken tenant is admitted and the hog's slice flagged.
// Then the hog is let go and the woken task must run.
func (w *heldWorld) answered() {
	w.t.Helper()
	sh := w.r.shards[0]
	if !w.pollHog() {
		w.t.Error("the hog's poll did not see the preemption flag")
	}
	sh.mu.Lock()
	admitted, flagged := w.idle.inSched, len(sh.active) == 1 && sh.active[0].preempted.Load()
	sh.mu.Unlock()
	if !admitted || !flagged {
		w.t.Fatalf("after the holder let go and the hog polled: woken tenant admitted=%v, running slice flagged=%v", admitted, flagged)
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

// TestSubmitNeverWaitsForShardLock pins the outsider half of the hand-over: a
// SubmitTask from outside the worker pool does not wait for a shard lock that
// somebody holds, and what it would have done under the lock — admit the
// wake-up, raise the preemption flag on the slice it out-ranks — is done by
// the running task's next poll once the holder has let go, with the shard's
// worker mid-slice throughout. One sub-test per kind of holder; a submit that
// blocked on the lock would wait for a gate that never opens, and the
// deadline fails it.
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
		w := newHeldWorld(t, Config{Enforcement: EnforcementConfig{Enabled: true}})
		for start := w.r.clock.Now(); w.r.clock.Now() == start; { // an installment needs a clock tick of service
		}
		w.hold("charge", w.r.Enforce) // held inside the interim installment
	})
	t.Run("TrySteal", func(t *testing.T) {
		w := newHeldWorld(t, Config{Sharding: ShardingConfig{Shards: 2, Steal: true}})
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
		w := newHeldWorld(t, Config{Sharding: ShardingConfig{Shards: 2}})
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
		w := newHeldWorld(t, Config{Sharding: ShardingConfig{Shards: 2}})
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
// the other side and completing, and with one token no later doorbell winner
// can cover a lost wake-up. A hop that submitted at once would be caught by
// the other worker's idle poll and never meet a park, so each hop first waits
// out that poll (awaitPollEnd) and submits into the hold that parks the
// worker: before its drain, between the drain and the announcement in
// idlers — the window the ring's re-read after the announcement closes, and
// without it the token stops within 50 hops — or after it, where
// the submit signals under the lock. First between two runtimes, where at
// least a quarter of the hops must park a worker (about two thirds do), then
// between two shards of one runtime with Steal armed: the park then goes
// through the steal round first, and a steal can put both tenants on one
// shard, where a hop submits at once.
func TestOneTokenPingPong(t *testing.T) {
	const hops = 500 // ≈ 0.15 s; ≈ 12 s under -race, which slows the poll ≈ 50×
	play := func(t *testing.T, a, b *Tenant, wantParks int64) {
		var n atomic.Int64
		done := make(chan struct{})
		var hop [2]Task
		side := [2]*Tenant{a, b}
		for i := range hop {
			i := i
			hop[i] = Once(func() {
				if n.Add(1) == hops {
					close(done)
					return
				}
				if peer := side[1-i].sh.Load(); peer != side[i].sh.Load() {
					awaitPollEnd(peer)
				}
				if err := side[1-i].SubmitTask(hop[1-i]); err != nil {
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
		var parks int64
		for _, tn := range side {
			sh := tn.sh.Load()
			sh.mu.Lock()
			parks += sh.parks
			sh.mu.Unlock()
		}
		if parks < wantParks {
			t.Fatalf("%d parks in %d hops: the hops no longer meet a parking worker", parks, hops)
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
		play(t, register(t, ra, "a"), register(t, rb, "b"), hops/4)
	})
	t.Run("shards", func(t *testing.T) {
		r := New(Config{Workers: 2, Preempt: true,
			Sharding: ShardingConfig{Shards: 2, Steal: true}})
		defer r.Close()
		play(t, register(t, r, "a"), register(t, r, "b"), 0)
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// awaitPollEnd returns once the idle worker of sh has ended its poll: when
// it holds sh's lock, in the hold that parks it, or has announced itself in
// idlers, or once its runtime is closed. It tries the lock on every 16th
// probe only, so that the worker's own Lock rarely finds it held, and yields
// as often as the poll does.
func awaitPollEnd(sh *shard) {
	for i := 1; sh.idlers.Load() == 0 && !sh.r.closed.Load(); i++ {
		if i%16 == 0 {
			if !sh.mu.TryLock() {
				return
			}
			sh.mu.Unlock()
		}
		if i%(idlePollProbes/32) == 0 {
			runtime.Gosched()
		}
	}
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

// TestHolderDrainNeverStepsBack pins the floor under the poll's drain: the
// clock the poll reads under the lock follows the shard's last hold in real
// time, but a clock that stepped back in between must not date the admission
// before that hold.
func TestHolderDrainNeverStepsBack(t *testing.T) {
	clock := &scriptedClock{}
	w := newHeldWorld(t, Config{Clock: clock}) // the hog's slice is dispatched at 0
	rec := &admitLog{}
	sh := w.r.shards[0]
	clock.now.Store(100)
	sh.mu.Lock() // the test is the holder, and its hold is the shard's last instant
	sh.eng.SetRecorder(rec)
	sh.drainLocked(clock.Now(), &postActions{sh: sh})
	sh.mu.Unlock()
	clock.now.Store(50)
	if err := w.idle.SubmitTask(Once(func() { close(w.ran) }), NoWait()); err != nil {
		t.Fatal(err)
	}
	w.answered() // the poll reads 50
	if len(rec.at) != 1 || rec.at[0] != 100 {
		t.Fatalf("wake-up admitted at %v, want one admission at the shard's last instant 100", rec.at)
	}
}

// TestForeignSubmitLeavesOwnerAlone pins who answers the doorbell: with the
// shard's only worker mid-slice, a submit from outside pushes onto the ring
// and returns without entering the shard's policy — the wake-up is neither
// admitted nor ranked against the running slice by the submitter — and the
// running task's next poll admits it and raises the flag.
func TestForeignSubmitLeavesOwnerAlone(t *testing.T) {
	w := newHeldWorld(t, Config{})
	sh := w.r.shards[0]
	w.g.arm("add idle")
	done := make(chan error, 1)
	go func() { done <- w.idle.SubmitTask(Once(func() { close(w.ran) }), NoWait()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-w.g.entered:
		t.Fatal("the submit admitted the wake-up itself: it entered the shard's policy")
	case <-time.After(deadlockDeadline):
		t.Fatal("deadlocked waiting for SubmitTask to return")
	}
	w.g.armed.Store(nil)
	sh.mu.Lock()
	admitted := w.idle.inSched
	sh.mu.Unlock()
	if admitted {
		t.Fatal("the woken tenant was admitted before its shard's owner drained the ring")
	}
	w.answered()
}

// TestStealSeesUndrainedRing pins that a thief sees a wake-up its victim's
// owner has not drained yet: shard 0's ring holds an item for a blocked
// tenant and its doorbell is up, so nready still reads 0, and shard 1's worker
// must steal the tenant all the same.
func TestStealSeesUndrainedRing(t *testing.T) {
	r := New(Config{Workers: 2, Manual: true, Clock: NewFakeClock(),
		Sharding: ShardingConfig{Shards: 2, Steal: true}})
	defer r.Close()
	tn, err := r.Register("sleeper", 1)
	if err != nil {
		t.Fatal(err)
	}
	sh0 := r.shards[0]
	if from := tn.sh.Load(); from != sh0 && !r.migrate(tn, from, sh0) {
		t.Fatal("could not place the tenant on shard 0")
	}
	q := queued{run: Once(func() {})}
	if q.cnt = tn.reserve(); q.cnt == nil {
		t.Fatal("no backlog slot")
	}
	if ok, moved := sh0.intakePush(tn, q, r.clock.Now()); !ok || moved {
		t.Fatalf("intakePush: ok=%v moved=%v", ok, moved)
	}
	sh0.drainPending.Store(true)
	if n := sh0.nready.Load(); n != 0 {
		t.Fatalf("shard 0 nready %d before its drain, want 0", n)
	}
	if !r.TrySteal(r.shards[1].firstWorker) {
		t.Fatal("the thief did not see the undrained ring")
	}
	if got := tn.sh.Load(); got != r.shards[1] {
		t.Fatalf("the tenant is on shard %d, want the thief's", got.id)
	}
	d := r.Dispatch(r.shards[1].firstWorker)
	if d == nil || d.Tenant() != tn {
		t.Fatal("the thief's worker did not dispatch the stolen tenant")
	}
	d.Complete(true)
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestManualClockAnomalies drives submit → drain → dispatch → settle in
// Manual mode on a clock that stalls and steps backwards between any two
// steps: no charge is negative, no tenant's service or start tag and no
// shard's lastNow moves back, the invariants hold after every step, and an
// enforcement deadline set after a backward step is honoured on time. The
// second world runs shards of two workers, so picks walk past a running
// thread, with one tenant infeasible in its shard (10 beside 1s: its capped φ
// moves on every wake-up and departure there), stealing armed and weight
// changes, rebalancing and steals in the mix. A transfer re-frames a tenant's
// tags at its new shard's virtual time (DESIGN.md §6) — at once for a
// runnable tenant, at its next wake-up for a blocked one — so the start-tag
// check skips a tenant from the step it changes shard until its new shard
// tags it. Its service must never move back.
func TestManualClockAnomalies(t *testing.T) {
	for _, world := range []struct {
		name      string
		workers   int
		tenants   int
		onShard0  int  // when > 0, the first onShard0 tenants are placed on shard 0, the rest on shard 1
		transfers bool // stealing armed; SetWeight, Rebalance and TrySteal join the mix
		weight    func(i int) float64
	}{
		{name: "one-worker-shards", workers: 2, tenants: 6, weight: func(i int) float64 { return float64(1 + i%3) }},
		{name: "two-worker-shards", workers: 4, tenants: 8, onShard0: 4, transfers: true, weight: func(i int) float64 {
			if i == 0 {
				return 10
			}
			return 1
		}},
	} {
		t.Run(world.name, func(t *testing.T) {
			testManualClockAnomalies(t, world.workers, world.tenants, world.onShard0, world.transfers, world.weight)
		})
	}
}

func testManualClockAnomalies(t *testing.T, workers, ntenants, onShard0 int, transfers bool, weight func(int) float64) {
	clock := &scriptedClock{}
	r := New(Config{Workers: workers, Manual: true, Preempt: true,
		Clock: clock, Quantum: 10 * simtime.Millisecond,
		Enforcement: EnforcementConfig{Enabled: true},
		Sharding:    ShardingConfig{Shards: 2, Steal: transfers},
		Intake:      IntakeConfig{QueueCap: 4}})
	defer r.Close()
	var tenants []*Tenant
	for i := 0; i < ntenants; i++ {
		tn, err := r.Register("t", weight(i))
		if err != nil {
			t.Fatal(err)
		}
		if onShard0 > 0 {
			want := r.shards[1]
			if i < onShard0 {
				want = r.shards[0]
			}
			if from := tn.sh.Load(); from != want && !r.migrate(tn, from, want) {
				t.Fatalf("could not place tenant %d on shard %d", i, want.id)
			}
		}
		tenants = append(tenants, tn)
	}
	type seen struct {
		service simtime.Duration
		start   float64
	}
	last := make([]seen, len(tenants))
	shardOf := make([]*shard, len(tenants))
	for i, tn := range tenants {
		shardOf[i] = tn.sh.Load()
	}
	reframed := make([]bool, len(tenants)) // moved, and not tagged since in its new frame
	lastNow := make([]simtime.Time, len(r.shards))
	inFlight := make([]*Dispatched, r.Workers())
	rng := uint64(1)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	backwards, capped := 0, 0
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
		ops := 4
		if transfers {
			ops = 7
		}
		switch op, w := next(ops), next(len(inFlight)); {
		case op == 0:
			tn := tenants[next(len(tenants))]
			if err := tn.SubmitTask(Once(func() {}), NoWait()); err != nil && err != ErrBackpressure {
				t.Fatal(err)
			}
		case op == 1:
			r.Enforce()
		case op == 4:
			i := next(len(tenants))
			if err := r.SetWeight(tenants[i], weight(i)+float64(next(3))); err != nil {
				t.Fatal(err)
			}
		case op == 5:
			r.Rebalance()
		case op == 6:
			r.TrySteal(w)
		case inFlight[w] == nil:
			inFlight[w] = r.Dispatch(w)
		default:
			if ran := inFlight[w].Complete(next(2) == 0); ran < 0 {
				t.Fatalf("step %d: negative charge %v", step, ran)
			}
			inFlight[w] = nil
		}
		for i, tn := range tenants {
			th := tn.th
			if sh := tn.sh.Load(); sh != shardOf[i] {
				shardOf[i], reframed[i] = sh, true
			}
			if th.Service < last[i].service || th.Start < last[i].start && !reframed[i] {
				t.Fatalf("step %d: tenant %d went back: service %v → %v, start tag %g → %g",
					step, i, last[i].service, th.Service, last[i].start, th.Start)
			}
			if th.Start != last[i].start && tn.inSched {
				reframed[i] = false // tagged in its current shard's frame
			}
			last[i] = seen{th.Service, th.Start}
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
		if th := tenants[0].th; th.Phi != th.Weight && tenants[0].inSched {
			capped++
		}
	}
	if transfers && (capped == 0 || r.Steals() == 0) {
		t.Fatalf("tenant 0 ran capped in %d steps, %d steals: the test walked no relabel or no transfer", capped, r.Steals())
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
