package main

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"sfsched"
	"sfsched/internal/metrics"
	"sfsched/internal/readjust"
	"sfsched/internal/xrand"
)

// hogs is the deterministic enforcement workload: one Manual runtime on a
// FakeClock, hogsWorkers manual workers in hogsShards shards with Preempt,
// Enforce and Steal armed, driven by one goroutine. hogsCount never-yielding
// tenants run hogsClosure-long closures (weights 10:1:1:… — hog 0 is
// infeasible, so readjustment matters) beside hogsInteractive tenants woken
// on a seeded schedule with hogsBurst tasks, while a tenant is registered,
// re-weighted or unregistered every hogsChurnEvery and Rebalance, Stats and
// ShardStats run every hogsStatsEvery. It uses the same rt dispatch path as
// flood differently: timer wheel, interim charges, preemption ranking,
// hand-offs, steals, migrations and stop-the-world stats fire on almost
// every step. Simulated-time results repeat exactly, so a change to any
// scheduling decision shows as a changed number; host steps per second
// prices the armed machinery. (A wall-clock hog run oversubscribes a 2-core
// host and would measure Go's and the OS's scheduler, not ours.)

type hogEventKind uint8

const (
	evTick     hogEventKind = iota // Enforce, then re-dispatch
	evSliceEnd                     // a closure returns
	evWake                         // an interactive tenant wakes
	evChurn                        // Register / SetWeight / Unregister
	evStats                        // Rebalance + Stats + ShardStats
)

type hogEvent struct {
	at   sfsched.Time
	seq  uint64 // insertion order breaks ties, so the replay is deterministic
	kind hogEventKind
	run  *hogSlice
	who  *hogTenant
}

type hogEvents []hogEvent

func (h hogEvents) Len() int { return len(h) }
func (h hogEvents) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h hogEvents) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hogEvents) Push(x any)   { *h = append(*h, x.(hogEvent)) }
func (h *hogEvents) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type hogTenant struct {
	tn        *sfsched.Tenant
	hog       bool
	weight    float64
	thinks    []sfsched.Duration // interactive: seeded think times, consumed in order
	wokeAt    sfsched.Time
	submitted int64
	completed int64
}

// hogSlice is one dispatched closure invocation from the driver's side.
type hogSlice struct {
	d        *sfsched.Dispatched
	who      *hogTenant
	worker   int
	detached bool // the enforcer confiscated its lane; the closure runs on out of band
}

// hogsInputs is the seeded input of hogs: per interactive tenant a weight in
// 1..7 and its think times, and the weights the churn re-weights with. A
// pure function of the seed.
type hogsInput struct {
	weights []float64
	thinks  [][]sfsched.Duration
	churn   []float64
}

func hogsInputs(seed uint64, span sfsched.Duration) hogsInput {
	rng := xrand.New(seed ^ 0x686f6773) // "hogs"
	in := hogsInput{}
	perTenant := int(4*span/hogsThinkMean) + 8
	for i := 0; i < hogsInteractive; i++ {
		in.weights = append(in.weights, float64(1+rng.Intn(7)))
		th := make([]sfsched.Duration, perTenant)
		for k := range th {
			th[k] = sfsched.Duration(float64(hogsThinkMean)*rng.ExpFloat64()) + sfsched.Microsecond
		}
		in.thinks = append(in.thinks, th)
	}
	for i := 0; i < int(span/hogsChurnEvery)+1; i++ {
		in.churn = append(in.churn, float64(1+rng.Intn(7)))
	}
	return in
}

// hogsOutcome is what one repetition of the simulation produced; every field
// but hostNs is an exact function of the seed.
type hogsOutcome struct {
	hostNs      int64
	setupNs     int64 // construction, registration and the first hogsWarm of the schedule
	steps       int64
	lat         []int64 // interactive wake→completion, simulated µs, sorted
	services    []sfsched.Duration
	shareErrMax float64
	jain        float64
	wakes       int64
	handoffs    int64
	steals      int64
	migrations  int64
	problems    []string
}

// fingerprint folds the exact figures into one number for the
// repetition-equality check.
func (out *hogsOutcome) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, v := range out.lat {
		mix(uint64(v))
	}
	for _, s := range out.services {
		mix(uint64(s))
	}
	mix(uint64(out.steps))
	mix(uint64(out.handoffs))
	mix(uint64(out.steals))
	mix(uint64(out.migrations))
	return h
}

// simulateHogs runs the whole scenario once.
func simulateHogs(o options) hogsOutcome {
	span, warm := sfsched.Duration(hogsSpan), sfsched.Time(hogsWarm)
	if o.short {
		span, warm = hogsSpanShort, sfsched.Time(hogsSpanShort/4)
	}
	in := hogsInputs(o.seed, span)
	begin := nowNs()
	clock := sfsched.NewFakeClock()
	r := sfsched.NewRuntime(sfsched.RuntimeConfig{
		Workers: hogsWorkers,
		Quantum: hogsQuantum,
		Clock:   clock,
		Manual:  true,
		Preempt: true,
		Sharding: sfsched.ShardingConfig{
			Shards: hogsShards,
			Steal:  true,
		},
		Enforcement: sfsched.EnforcementConfig{Enabled: true, Tick: hogsTick},
		Intake:      sfsched.IntakeConfig{QueueCap: 4},
	})
	defer r.Close()

	out := hogsOutcome{}
	fail := func(format string, args ...any) {
		if len(out.problems) < 8 {
			out.problems = append(out.problems, fmt.Sprintf(format, args...))
		}
	}
	noop := sfsched.RunOnce(func() {})
	byTenant := map[*sfsched.Tenant]*hogTenant{}
	var hogs, inter []*hogTenant
	register := func(name string, w float64, hog bool) *hogTenant {
		tn, err := r.Register(name, w)
		if err != nil {
			fail("hogs: register %s: %v", name, err)
			return nil
		}
		out.steps++
		ht := &hogTenant{tn: tn, hog: hog, weight: w}
		byTenant[tn] = ht
		return ht
	}
	for i := 0; i < hogsCount; i++ {
		w := 1.0
		if i == 0 {
			w = hogsHeavyWeight
		}
		hogs = append(hogs, register(fmt.Sprintf("hog-%d", i), w, true))
	}
	for i := 0; i < hogsInteractive; i++ {
		ht := register(fmt.Sprintf("inter-%d", i), in.weights[i], false)
		ht.thinks = in.thinks[i]
		inter = append(inter, ht)
	}

	var events hogEvents
	var seq uint64
	push := func(e hogEvent) {
		seq++
		e.seq = seq
		heap.Push(&events, e)
	}
	busy := make([]*hogSlice, hogsWorkers)
	submit := func(ht *hogTenant, now sfsched.Time) {
		out.steps++
		if err := ht.tn.SubmitTask(noop, sfsched.NoWait()); err != nil {
			fail("hogs: submit: %v", err)
			return
		}
		ht.submitted++
		ht.wokeAt = now
	}
	dispatchIdle := func(now sfsched.Time) {
		for w := 0; w < hogsWorkers; w++ {
			if busy[w] != nil {
				continue
			}
			out.steps++
			d := r.Dispatch(w)
			if d == nil {
				out.steps++
				if !r.TrySteal(w) {
					continue
				}
				out.steps++
				if d = r.Dispatch(w); d == nil {
					continue
				}
			}
			ht := byTenant[d.Tenant()]
			if ht == nil {
				fail("hogs: dispatched an unknown tenant %s", d.Tenant().Name())
				d.Complete(true)
				continue
			}
			run := &hogSlice{d: d, who: ht, worker: w}
			busy[w] = run
			length := sfsched.Duration(hogsBurst)
			if ht.hog {
				length = hogsClosure // the closure ignores its slice
			}
			push(hogEvent{at: now.Add(length), kind: evSliceEnd, run: run})
		}
	}
	for _, ht := range hogs {
		submit(ht, 0)
	}
	for _, ht := range inter {
		push(hogEvent{at: sfsched.Time(ht.thinks[0]), kind: evWake, who: ht})
		ht.thinks = ht.thinks[1:]
	}
	push(hogEvent{at: sfsched.Time(hogsTick), kind: evTick})
	push(hogEvent{at: sfsched.Time(hogsChurnEvery), kind: evChurn})
	push(hogEvent{at: sfsched.Time(hogsStatsEvery), kind: evStats})
	dispatchIdle(0)

	end := sfsched.Time(span)
	var churned *hogTenant
	churnStep := 0
	var lat []int64
	for events.Len() > 0 {
		e := heap.Pop(&events).(hogEvent)
		if e.at > end {
			break
		}
		clock.Set(e.at)
		now := e.at
		if out.setupNs == 0 && now >= warm {
			out.setupNs = nowNs() - begin
		}
		switch e.kind {
		case evTick:
			out.steps++
			r.Enforce()
			for w, run := range busy {
				if run != nil && run.d.Detached() {
					run.detached = true
					busy[w] = nil
				}
			}
			push(hogEvent{at: now.Add(hogsTick), kind: evTick})
		case evSliceEnd:
			run := e.run
			out.steps++
			run.d.Complete(!run.who.hog) // a hog's task never finishes; an interactive burst is done
			if !run.detached {
				busy[run.worker] = nil
			}
			if ht := run.who; !ht.hog {
				ht.completed++
				if o.inject == "drop" && ht == inter[0] && ht.completed == 1 {
					ht.completed-- // a completion the harness never hears of
				}
				if now >= warm {
					lat = append(lat, int64(now.Sub(ht.wokeAt)))
				}
				if len(ht.thinks) > 0 {
					push(hogEvent{at: now.Add(ht.thinks[0]), kind: evWake, who: ht})
					ht.thinks = ht.thinks[1:]
				}
			}
		case evWake:
			submit(e.who, now)
		case evChurn:
			w := in.churn[churnStep%len(in.churn)]
			switch churnStep % 3 {
			case 0:
				churned = register(fmt.Sprintf("churn-%d", churnStep), w, false)
			case 1:
				out.steps++
				if err := r.SetWeight(churned.tn, w); err != nil {
					fail("hogs: setweight: %v", err)
				}
			case 2:
				out.steps++
				if err := r.Unregister(churned.tn); err != nil {
					fail("hogs: unregister: %v", err)
				}
				delete(byTenant, churned.tn)
			}
			churnStep++
			push(hogEvent{at: now.Add(hogsChurnEvery), kind: evChurn})
		case evStats:
			out.steps += 3
			r.Rebalance()
			_ = r.Stats()
			_ = r.ShardStats()
			push(hogEvent{at: now.Add(hogsStatsEvery), kind: evStats})
		}
		dispatchIdle(now)
	}
	out.hostNs = nowNs() - begin

	// The exact figures, read from the runtime's public statistics.
	var total sfsched.Duration
	weights := make([]float64, len(hogs))
	byName := map[string]sfsched.TenantStat{}
	for _, st := range r.Stats() {
		byName[st.Name] = st
	}
	for i, ht := range hogs {
		st := byName[ht.tn.Name()]
		out.services = append(out.services, st.Service)
		total += st.Service
		weights[i] = ht.weight
	}
	ideal := readjust.Rates(weights, hogsWorkers)
	var idealSum float64
	for _, v := range ideal {
		idealSum += v
	}
	for i, s := range out.services {
		want := ideal[i] / idealSum
		got := float64(s) / float64(total)
		out.shareErrMax = math.Max(out.shareErrMax, math.Abs(got-want)/want)
	}
	out.jain = metrics.JainIndex(out.services, ideal)
	out.handoffs, out.steals, out.migrations = r.Handoffs(), r.Steals(), r.Migrations()
	slices.Sort(lat)
	out.lat = lat
	for _, ht := range inter {
		out.wakes += ht.submitted
		// A tenant woken just before the span ended may still be queued or
		// running; anything else unaccounted for is a lost completion.
		if pending := ht.submitted - ht.completed; pending != int64(ht.tn.Queued()) {
			fail("hogs: %s submitted %d, completed %d, but %d queued",
				ht.tn.Name(), ht.submitted, ht.completed, ht.tn.Queued())
		}
	}
	if err := r.CheckInvariants(); err != nil {
		fail("hogs: %v", err)
	}
	return out
}

// runHogs is the untraced end-to-end run: the simulation is repeated until
// the measured seconds are used up (at least three times); every repetition
// must reproduce the first one's exact figures, and steps per second is the
// repetitions' rates summarised by quiet.
func runHogs(o options, res *result) error {
	var first hogsOutcome
	var want uint64
	var rates, setups []float64
	deadline := nowNs() + int64(o.duration())
	for rep := 0; rep < 3 || nowNs() < deadline; rep++ {
		out := simulateHogs(o)
		if rep == 0 {
			first, want = out, out.fingerprint()
			for _, p := range out.problems {
				res.problem("%s", p)
			}
		} else if out.fingerprint() != want {
			res.problem("hogs: repetition %d did not reproduce the first one's simulated results", rep)
		}
		rates = append(rates, float64(out.steps)/seconds(out.hostNs))
		setups = append(setups, seconds(out.setupNs))
	}
	if len(first.lat) < 200 && !o.short {
		res.problem("hogs: only %d interactive wake-ups", len(first.lat))
	}
	res.attempted += first.wakes
	res.add("setup_s", median(setups), "s")
	res.add("ops_per_s", quiet(rates, "higher"), "1/s")
	res.add("lat_p50_us", float64(percentile(first.lat, 0.50)), "us")
	res.extra("hogs.lat_p90_us", float64(percentile(first.lat, 0.90)), "us")
	res.extra("hogs.lat_p99_us", float64(percentile(first.lat, 0.99)), "us")
	res.extra("hogs.share_err_max", first.shareErrMax, "ratio")
	res.extra("hogs.jain", first.jain, "ratio")
	res.samples["repetitions"] = int64(len(rates))
	res.samples["steps"] = first.steps
	res.samples["latencies"] = int64(len(first.lat))
	res.samples["handoffs"] = first.handoffs
	res.samples["steals"] = first.steals
	res.samples["migrations"] = first.migrations
	return nil
}
