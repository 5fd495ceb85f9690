package vtq_test

// Recorded-trace replay (the internal/hier pattern): three seeded scenarios
// drive each parameterisation of the kernel directly — no machine, no engine —
// and write every pick, every charge with the tags it produced, every φ
// assignment and every frame-lead transfer as text. The files under testdata/
// were recorded from the three separate implementations internal/sfq,
// internal/bvt and internal/stride carried before the kernel existed; the
// kernel must replay them byte for byte. Floats are printed in their shortest
// round-trip form, so a one-ulp difference in a tag fails the comparison.
//
// go test ./internal/vtq -run TestRecordedTraces -update rewrites the files
// from whatever implementation is checked out — only ever do that on purpose.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sfsched/internal/bvt"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/stride"
	"sfsched/internal/vtq"
	"sfsched/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/*.trace from the current implementation")

// policy is the capability set every parameterisation carries.
type policy interface {
	sched.Scheduler
	sched.Tagged
}

const traceQuantum = 20 * simtime.Millisecond

// policies are the parameterisations under trace. warps makes the scenarios
// hand out non-zero BVT warps. drain lets the churn scenario empty the
// runnable set: the old stride kept a stale global pass there where SFQ and
// BVT fell back on the last charged tag, and the kernel takes the latter for
// all three (DESIGN.md §1), so only the traces of the two whose rule survived
// may reach that state.
var policies = []struct {
	name         string
	new          func(cpus int) policy
	warps, drain bool
}{
	{"sfq", func(p int) policy { return sfq.New(p, sfq.WithQuantum(traceQuantum)) }, false, true},
	{"sfq+readjust", func(p int) policy {
		return sfq.New(p, sfq.WithQuantum(traceQuantum), sfq.WithReadjustment())
	}, false, true},
	{"bvt", func(p int) policy { return bvt.New(p, bvt.WithQuantum(traceQuantum)) }, false, true},
	{"bvt+warp", func(p int) policy { return bvt.New(p, bvt.WithQuantum(traceQuantum)) }, true, true},
	{"stride", func(p int) policy { return stride.New(p, stride.WithQuantum(traceQuantum)) }, false, false},
	{"stride+readjust", func(p int) policy {
		return stride.New(p, stride.WithQuantum(traceQuantum), vtq.WithReadjustment())
	}, false, false},
}

// traceWorld is a scheduler plus the bookkeeping a driver owes it (which
// thread holds which CPU, who is blocked). Worlds of one scenario share the
// random stream and the recorded text; label tells their lines apart.
type traceWorld struct {
	t       *testing.T
	label   string
	s       policy
	warps   bool
	drain   bool
	r       *xrand.Rand
	out     *strings.Builder
	now     simtime.Time
	threads []*sched.Thread
	lastPhi map[int]float64
	running []*sched.Thread // by CPU
	ready   []*sched.Thread // runnable, not running
	blocked []*sched.Thread
}

func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// tags prints every tag field whatever the policy, so a policy writing a
// field that is not its own shows up too.
func tags(th *sched.Thread) string {
	return fmt.Sprintf("S=%s F=%s P=%s", g(th.Start), g(th.Finish), g(th.Pass))
}

// tagsStride is tags plus the cached stride, for the operations that refresh
// the cache in every implementation: add, charge and reweight. (The recorded
// stride left it stale for a thread whose φ another thread's arrival or
// departure readjusted; the kernel refreshes it with φ.)
func tagsStride(th *sched.Thread) string { return tags(th) + " st=" + g(th.Stride) }

func mkThread(id int, weight float64) *sched.Thread {
	return &sched.Thread{ID: id, Weight: weight, Phi: weight,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

// phis records the virtual time and every φ that differs from the last one
// recorded for its thread, runnable or not: a departure must leave the φ a
// later charge divides by exactly where the recorded implementation left it.
func (w *traceWorld) phis() {
	fmt.Fprintf(w.out, "%sphi v=%s", w.label, g(w.s.VirtualTime()))
	for _, th := range w.threads {
		if last, ok := w.lastPhi[th.ID]; !ok || last != th.Phi {
			w.lastPhi[th.ID] = th.Phi
			fmt.Fprintf(w.out, " %d:%s", th.ID, g(th.Phi))
		}
	}
	w.out.WriteByte('\n')
}

func drop(s []*sched.Thread, th *sched.Thread) []*sched.Thread {
	if i := slices.Index(s, th); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// warp sets th's BVT warp, queued or not, when the policy under trace hands
// out warps; the draw is the caller's either way, so every policy sees the
// same random stream.
func (w *traceWorld) warp(th *sched.Thread, warp float64) {
	if !w.warps {
		return
	}
	w.s.(interface {
		SetWarp(*sched.Thread, float64)
	}).SetWarp(th, warp)
	fmt.Fprintf(w.out, "%swarp %d %s\n", w.label, th.ID, g(warp))
}

func (w *traceWorld) add(th *sched.Thread) {
	th.State = sched.Runnable
	if err := w.s.Add(th, w.now); err != nil {
		w.t.Fatalf("add %v: %v", th, err)
	}
	if !slices.Contains(w.threads, th) {
		w.threads = append(w.threads, th)
	}
	w.blocked = drop(w.blocked, th)
	w.ready = append(w.ready, th)
	fmt.Fprintf(w.out, "%sadd %d %s\n", w.label, th.ID, tagsStride(th))
	w.phis()
}

// remove takes th out of the runnable set; a running thread stays on its CPU
// (the driver charges it afterwards, as an unregister mid-slice would).
func (w *traceWorld) remove(th *sched.Thread, state sched.State) {
	th.State = state
	if err := w.s.Remove(th, w.now); err != nil {
		w.t.Fatalf("remove %v: %v", th, err)
	}
	w.ready = drop(w.ready, th)
	if state == sched.Blocked {
		w.blocked = append(w.blocked, th)
	}
	fmt.Fprintf(w.out, "%srm %d\n", w.label, th.ID)
	w.phis()
}

func (w *traceWorld) pick(cpu int) {
	th := w.s.Pick(cpu, w.now)
	if th == nil {
		fmt.Fprintf(w.out, "%spick %d -\n", w.label, cpu)
		return
	}
	fmt.Fprintf(w.out, "%spick %d %d a=%s rank=%s\n", w.label, cpu, th.ID,
		g(w.s.FreshSurplus(th)), g(w.s.PreemptRank(th, 0)))
	th.CPU = cpu
	w.running[cpu] = th
	w.ready = drop(w.ready, th)
}

// interim pays ran of the slice on cpu as a mid-slice installment.
func (w *traceWorld) interim(cpu int, ran simtime.Duration) {
	th := w.running[cpu]
	w.now = w.now.Add(ran)
	w.s.Charge(th, ran, w.now)
	fmt.Fprintf(w.out, "%sint %d %d %s v=%s\n", w.label, th.ID, int64(ran), tagsStride(th), g(w.s.VirtualTime()))
}

// charge ends the slice on cpu after ran. It reports the thread, which is
// back in ready unless it left the runnable set while it ran.
func (w *traceWorld) charge(cpu int, ran simtime.Duration) *sched.Thread {
	th := w.running[cpu]
	w.running[cpu] = nil
	w.now = w.now.Add(ran)
	th.CPU, th.LastCPU = sched.NoCPU, cpu
	w.s.Charge(th, ran, w.now)
	fmt.Fprintf(w.out, "%schg %d %d %s v=%s rank=%s\n", w.label, th.ID, int64(ran),
		tagsStride(th), g(w.s.VirtualTime()), g(w.s.PreemptRank(th, ran)))
	if th.State == sched.Runnable {
		w.ready = append(w.ready, th)
	}
	return th
}

func (w *traceWorld) setWeight(th *sched.Thread, wt float64) {
	if err := w.s.SetWeight(th, wt, w.now); err != nil {
		w.t.Fatal(err)
	}
	fmt.Fprintf(w.out, "%sw %d %s %s\n", w.label, th.ID, g(wt), tagsStride(th))
	w.phis()
}

// migrate moves a ready thread to dst the way the rebalancer does: out of the
// source's runnable set, its lead over the source's virtual time re-created
// over the destination's, and in again under the join rule.
func (w *traceWorld) migrate(th *sched.Thread, dst *traceWorld) {
	w.remove(th, sched.Runnable)
	w.threads = drop(w.threads, th)
	lead := w.s.FrameLead(th)
	dst.s.SetFrameLead(th, lead)
	fmt.Fprintf(w.out, "%slead %d %s -> %s%s\n", w.label, th.ID, g(lead), dst.label, tags(th))
	dst.add(th)
}

func ms(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }

// Each scenario gets two worlds of the policy under trace, of cpus and of 2
// processors; all but the last use only the first.
var traceScenarios = []struct {
	name string
	cpus int
	run  func(w0, w1 *traceWorld)
}{
	// Steady compute on 4 CPUs: thread 1 asks for more than the one
	// processor it can use (40 of a total near 100), slices vary in length,
	// and every fifth slice is paid in two installments.
	{"steady", 4, func(w, _ *traceWorld) {
		w.add(mkThread(1, 40))
		for id := 2; id <= 20; id++ {
			th := mkThread(id, float64(1+w.r.Intn(5)))
			w.warp(th, float64(w.r.Intn(4))*0.05)
			w.add(th)
		}
		for cpu := range w.running {
			w.pick(cpu)
		}
		for step := 0; step < 250; step++ {
			cpu := (step * 3) % 4
			if step%5 == 4 {
				w.interim(cpu, ms(1+w.r.Intn(10)))
			}
			w.charge(cpu, ms(1+w.r.Intn(20)))
			w.pick(cpu)
		}
	}},
	// Block/wake churn on 2 CPUs: threads block after a charge, leave while
	// still running (charged afterwards, outside the runnable set), exit,
	// wake with stale tags, new threads arrive, and warps change on queued
	// threads. Where the policy allows it the machine goes fully idle once.
	{"churn", 2, func(w, _ *traceWorld) {
		next := 1
		arrive := func() {
			th := mkThread(next, float64(1+w.r.Intn(9)))
			next++
			w.warp(th, float64(w.r.Intn(3))*0.1)
			w.add(th)
		}
		for next <= 12 {
			arrive()
		}
		for step := 0; step < 400; step++ {
			cpu := w.r.Intn(2)
			if step == 200 && w.drain { // v must fall back on the last charged tag
				for len(w.ready) > 0 {
					w.remove(w.ready[0], sched.Blocked)
				}
				for c := range w.running {
					if w.running[c] != nil {
						w.remove(w.charge(c, ms(5)), sched.Blocked)
					}
					w.pick(c)
				}
			}
			// No random step may take the last runnable thread away: the
			// drain above is the only way the set empties.
			spare := w.s.Runnable() > 1
			switch op := w.r.Intn(16); {
			case op < 4 && len(w.blocked) > 0: // wake
				w.add(w.blocked[w.r.Intn(len(w.blocked))])
			case op < 5 && next <= 24: // arrival
				arrive()
			case op < 6 && len(w.ready) > 0 && spare: // a ready thread blocks
				w.remove(w.ready[w.r.Intn(len(w.ready))], sched.Blocked)
			case op < 7 && w.running[cpu] != nil && spare: // leaves mid-slice
				w.remove(w.running[cpu], sched.Blocked)
				w.charge(cpu, ms(1+w.r.Intn(20)))
			case op < 8 && len(w.ready) > 0: // a queued thread's warp changes
				w.warp(w.ready[w.r.Intn(len(w.ready))], float64(w.r.Intn(3))*0.1)
			default: // dispatch round; the charged thread sometimes blocks or exits
				if w.running[cpu] != nil {
					th := w.charge(cpu, ms(1+w.r.Intn(20)))
					switch fate := w.r.Intn(24); {
					case fate < 3 && w.s.Runnable() > 1:
						w.remove(th, sched.Blocked)
					case fate < 4 && w.s.Runnable() > 1:
						w.remove(th, sched.Exited)
					}
				}
				w.pick(cpu)
			}
		}
	}},
	// Reweight and transfer: two instances (4 and 2 CPUs) run side by side;
	// weights of runnable, running and blocked threads change between
	// dispatches, and ready threads migrate in both directions carrying
	// their frame lead.
	{"reweight", 4, func(w0, w1 *traceWorld) {
		w0.label, w1.label = "A ", "B "
		for id := 1; id <= 22; id++ {
			th := mkThread(id, float64(1+w0.r.Intn(6)))
			w := w0
			if id%3 == 0 {
				w = w1
			}
			w.warp(th, float64(w0.r.Intn(4))*0.05)
			w.add(th)
		}
		for _, w := range []*traceWorld{w0, w1} {
			for cpu := range w.running {
				w.pick(cpu)
			}
		}
		for step := 0; step < 350; step++ {
			w, other := w0, w1
			if w0.r.Intn(3) == 0 {
				w, other = w1, w0
			}
			cpu := w.r.Intn(len(w.running))
			switch op := w.r.Intn(12); {
			case op < 2: // any thread, running and blocked ones included
				w.setWeight(w.threads[w.r.Intn(len(w.threads))], float64(1+w.r.Intn(40)))
			case op < 3 && len(w.ready) > 1:
				w.migrate(w.ready[w.r.Intn(len(w.ready))], other)
			case op < 4 && len(w.blocked) > 0:
				w.add(w.blocked[w.r.Intn(len(w.blocked))])
			case op < 5 && len(w.ready) > 3:
				w.remove(w.ready[w.r.Intn(len(w.ready))], sched.Blocked)
			default:
				if w.running[cpu] != nil {
					w.charge(cpu, ms(1+w.r.Intn(20)))
				}
				w.pick(cpu)
			}
		}
	}},
}

func TestRecordedTraces(t *testing.T) {
	for i, sc := range traceScenarios {
		for _, p := range policies {
			t.Run(sc.name+"/"+p.name, func(t *testing.T) {
				r, out := xrand.New(uint64(101*(i+1))), &strings.Builder{}
				world := func(cpus int) *traceWorld {
					return &traceWorld{t: t, s: p.new(cpus), warps: p.warps, drain: p.drain, r: r, out: out,
						lastPhi: map[int]float64{}, running: make([]*sched.Thread, cpus)}
				}
				w0, w1 := world(sc.cpus), world(2)
				sc.run(w0, w1)
				for _, w := range []*traceWorld{w0, w1} {
					for _, th := range w.threads {
						fmt.Fprintf(out, "%send %d service=%d %s\n", w.label, th.ID, int64(th.Service), tags(th))
					}
				}
				got := out.String()
				path := filepath.Join("testdata", sc.name+"."+p.name+".trace")
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got == string(want) {
					return
				}
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			})
		}
	}
}
