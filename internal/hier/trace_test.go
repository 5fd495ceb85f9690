package hier

// Recorded-trace replay: three seeded scenarios drive the scheduler directly
// (no machine, no engine) and write every pick, every charge with the tags it
// produced, and every φ assignment as text. The files under testdata/ were
// recorded from the implementation that carried its own heaps, virtual time
// and stored-surplus epoch; the composition over internal/core must replay
// them byte for byte. Floats are printed in their shortest round-trip form,
// so a one-ulp difference in a tag or a φ fails the comparison.
//
// go test ./internal/hier -run TestRecordedTraces -update rewrites the files
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

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/*.trace from the current implementation")

// traceWorld is a scheduler plus the bookkeeping a driver owes it (which
// thread holds which CPU, who is blocked) and the text recorded so far.
type traceWorld struct {
	t       *testing.T
	h       *Hier
	r       *xrand.Rand
	now     simtime.Time
	threads []*sched.Thread
	lastPhi map[int]float64
	running []*sched.Thread // by CPU
	ready   []*sched.Thread // runnable, not running
	blocked []*sched.Thread
	out     strings.Builder
}

func newTraceWorld(t *testing.T, cpus int, seed uint64) *traceWorld {
	return &traceWorld{
		t: t, h: New(cpus, 20*simtime.Millisecond), r: xrand.New(seed),
		lastPhi: map[int]float64{}, running: make([]*sched.Thread, cpus),
	}
}

func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func (w *traceWorld) mk(c *Class, weight float64) *sched.Thread {
	th := &sched.Thread{ID: len(w.threads) + 1, Weight: weight, Phi: weight,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
	w.threads = append(w.threads, th)
	if c != nil {
		w.h.Assign(th, c)
	}
	return th
}

// phis records every φ that differs from the last one recorded for its
// thread, runnable or not: a departure must leave the φ a later charge
// divides by exactly where the recorded implementation left it.
func (w *traceWorld) phis() {
	fmt.Fprintf(&w.out, "phi v=%s", g(w.h.VirtualTime()))
	for _, th := range w.threads {
		if last, ok := w.lastPhi[th.ID]; !ok || last != th.Phi {
			w.lastPhi[th.ID] = th.Phi
			fmt.Fprintf(&w.out, " %d:%s", th.ID, g(th.Phi))
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

func (w *traceWorld) add(th *sched.Thread) {
	th.State = sched.Runnable
	if err := w.h.Add(th, w.now); err != nil {
		w.t.Fatalf("add %v: %v", th, err)
	}
	w.blocked = drop(w.blocked, th)
	w.ready = append(w.ready, th)
	fmt.Fprintf(&w.out, "add %d S=%s\n", th.ID, g(th.Start))
	w.phis()
}

// remove takes th out of the runnable set; a running thread stays on its CPU
// (the driver charges it afterwards, as an unregister mid-slice would).
func (w *traceWorld) remove(th *sched.Thread, state sched.State) {
	th.State = state
	if err := w.h.Remove(th, w.now); err != nil {
		w.t.Fatalf("remove %v: %v", th, err)
	}
	w.ready = drop(w.ready, th)
	if state == sched.Blocked {
		w.blocked = append(w.blocked, th)
	}
	fmt.Fprintf(&w.out, "rm %d\n", th.ID)
	w.phis()
}

func (w *traceWorld) pick(cpu int) {
	th := w.h.Pick(cpu, w.now)
	if th == nil {
		fmt.Fprintf(&w.out, "pick %d -\n", cpu)
		return
	}
	fmt.Fprintf(&w.out, "pick %d %d a=%s\n", cpu, th.ID, g(w.h.FreshSurplus(th)))
	th.CPU = cpu
	w.running[cpu] = th
	w.ready = drop(w.ready, th)
}

// charge ends the slice on cpu after ran. It reports the thread, which is
// back in ready unless it left the runnable set while it ran.
func (w *traceWorld) charge(cpu int, ran simtime.Duration) *sched.Thread {
	th := w.running[cpu]
	w.running[cpu] = nil
	w.now = w.now.Add(ran)
	th.CPU, th.LastCPU = sched.NoCPU, cpu
	w.h.Charge(th, ran, w.now)
	fmt.Fprintf(&w.out, "chg %d %d S=%s v=%s rank=%s\n", th.ID, int64(ran),
		g(th.Start), g(w.h.VirtualTime()), g(w.h.PreemptRank(th, ran)))
	if th.State == sched.Runnable {
		w.ready = append(w.ready, th)
	}
	return th
}

var traceScenarios = []struct {
	name string
	run  func(t *testing.T) *traceWorld
}{
	// Steady state on 4 CPUs: gold's single thread makes the class
	// infeasible (its 8/13 of four CPUs is capped at the one CPU a lone
	// thread can use), silver holds a thread capped inside the class, one
	// thread lives in the default class.
	{"steady", func(t *testing.T) *traceWorld {
		w := newTraceWorld(t, 4, 101)
		gold := w.h.MustAddClass("gold", 8)
		silver := w.h.MustAddClass("silver", 3)
		bronze := w.h.MustAddClass("bronze", 1)
		w.add(w.mk(gold, 2))
		w.add(w.mk(silver, 9))
		for i := 0; i < 5; i++ {
			w.add(w.mk(silver, float64(1+w.r.Intn(3))))
		}
		for i := 0; i < 12; i++ {
			w.add(w.mk(bronze, float64(1+w.r.Intn(5))))
		}
		w.add(w.mk(nil, 1))
		for cpu := range w.running {
			w.pick(cpu)
		}
		for step := 0; step < 700; step++ {
			cpu := (step * 3) % 4
			w.charge(cpu, simtime.Duration(1+w.r.Intn(20))*simtime.Millisecond)
			w.pick(cpu)
		}
		return w
	}},
	// Block/wake churn on 2 CPUs: threads block after a charge, leave while
	// still running (charged afterwards, outside the runnable set), exit,
	// wake with stale finish tags, and new threads arrive; classes empty
	// out and refill, and the machine goes fully idle now and then.
	{"churn", func(t *testing.T) *traceWorld {
		w := newTraceWorld(t, 2, 202)
		classes := []*Class{w.h.MustAddClass("a", 3), w.h.MustAddClass("b", 2), w.h.MustAddClass("c", 1), nil}
		for i := 0; i < 14; i++ {
			w.add(w.mk(classes[i%4], float64(1+w.r.Intn(9))))
		}
		for step := 0; step < 800; step++ {
			cpu := w.r.Intn(2)
			if step == 400 { // drain: v must fall back on the last finish tag
				for len(w.ready) > 0 {
					w.remove(w.ready[0], sched.Blocked)
				}
				for c := range w.running {
					if w.running[c] != nil {
						w.remove(w.charge(c, 5*simtime.Millisecond), sched.Blocked)
					}
					w.pick(c)
				}
			}
			switch op := w.r.Intn(16); {
			case op < 4 && len(w.blocked) > 0: // wake
				w.add(w.blocked[w.r.Intn(len(w.blocked))])
			case op < 5 && len(w.threads) < 28: // arrival
				w.add(w.mk(classes[w.r.Intn(4)], float64(1+w.r.Intn(9))))
			case op < 6 && len(w.ready) > 0: // a ready thread blocks
				w.remove(w.ready[w.r.Intn(len(w.ready))], sched.Blocked)
			case op < 7 && w.running[cpu] != nil: // leaves mid-slice
				w.remove(w.running[cpu], sched.Blocked)
				w.charge(cpu, simtime.Duration(1+w.r.Intn(20))*simtime.Millisecond)
			default: // dispatch round; the charged thread sometimes blocks or exits
				if w.running[cpu] != nil {
					th := w.charge(cpu, simtime.Duration(1+w.r.Intn(20))*simtime.Millisecond)
					switch fate := w.r.Intn(24); {
					case fate < 3:
						w.remove(th, sched.Blocked)
					case fate < 4:
						w.remove(th, sched.Exited)
					}
				}
				w.pick(cpu)
			}
		}
		return w
	}},
	// Weight churn on 4 CPUs: thread weights (runnable and blocked) and class
	// weights change between dispatches, swinging classes in and out of
	// their caps.
	{"reweight", func(t *testing.T) *traceWorld {
		w := newTraceWorld(t, 4, 303)
		classes := []*Class{w.h.MustAddClass("x", 4), w.h.MustAddClass("y", 2), w.h.MustAddClass("z", 1)}
		for i := 0; i < 18; i++ {
			w.add(w.mk(classes[i%3], float64(1+w.r.Intn(6))))
		}
		for cpu := range w.running {
			w.pick(cpu)
		}
		for step := 0; step < 700; step++ {
			cpu := w.r.Intn(4)
			switch op := w.r.Intn(12); {
			case op < 2: // any thread, running and blocked ones included
				th := w.threads[w.r.Intn(len(w.threads))]
				wt := float64(1 + w.r.Intn(40))
				if err := w.h.SetWeight(th, wt, w.now); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&w.out, "w %d %s\n", th.ID, g(wt))
				w.phis()
			case op < 3:
				c := classes[w.r.Intn(3)]
				wt := float64(1 + w.r.Intn(12))
				if err := w.h.SetClassWeight(c, wt); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&w.out, "cw %s %s rate=%s\n", c.Name(), g(wt), g(c.Rate()))
				w.phis()
			case op < 4 && len(w.blocked) > 0:
				w.add(w.blocked[w.r.Intn(len(w.blocked))])
			case op < 5 && len(w.ready) > 4:
				w.remove(w.ready[w.r.Intn(len(w.ready))], sched.Blocked)
			default:
				if w.running[cpu] != nil {
					w.charge(cpu, simtime.Duration(1+w.r.Intn(20))*simtime.Millisecond)
				}
				w.pick(cpu)
			}
		}
		return w
	}},
}

func TestRecordedTraces(t *testing.T) {
	for _, sc := range traceScenarios {
		t.Run(sc.name, func(t *testing.T) {
			w := sc.run(t)
			for _, c := range w.h.Classes() {
				fmt.Fprintf(&w.out, "class %s service=%s rate=%s\n", c.Name(), g(c.Service()), g(c.Rate()))
			}
			got := w.out.String()
			path := filepath.Join("testdata", sc.name+".trace")
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
