package vtq_test

// Kernel conformance: what every parameterisation must do, checked once over
// all of them. The policy packages keep only the tests of what is theirs
// alone (SFQ's Example 1, BVT's warp, stride's cached stride).

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"

	"sfsched/internal/bvt"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/stride"
	"sfsched/internal/vtq"
	"sfsched/internal/xrand"
)

func startTag(t *sched.Thread) *float64  { return &t.Start }
func finishTag(t *sched.Thread) *float64 { return &t.Finish }
func passTag(t *sched.Thread) *float64   { return &t.Pass }

// kernels are the three parameterisations with what a test must know to read
// their tags and predict their order: which fields the tags are, the unit a
// charge advances them in (ran/unit/φ), whether the order takes the warp off
// the tag, and whether equal tags go heavier first before lower ID first.
var kernels = []struct {
	name          string
	new           func(p int, opts ...vtq.Option) *vtq.Queue
	tag, rest     func(*sched.Thread) *float64
	unit          simtime.Duration
	warped, byWgt bool
}{
	{"SFQ", sfq.New, startTag, finishTag, simtime.Second, false, true},
	{"BVT", bvt.New, startTag, startTag, simtime.Second, true, true},
	{"stride", stride.New, passTag, passTag, traceQuantum, false, false},
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestConformance(t *testing.T) {
	for _, k := range kernels {
		mk := func(p int, opts ...vtq.Option) *vtq.Queue {
			return k.new(p, append([]vtq.Option{vtq.WithQuantum(traceQuantum)}, opts...)...)
		}
		add := func(t *testing.T, q *vtq.Queue, ths ...*sched.Thread) {
			t.Helper()
			for _, th := range ths {
				th.State = sched.Runnable
				if err := q.Add(th, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		block := func(t *testing.T, q *vtq.Queue, th *sched.Thread) {
			t.Helper()
			th.State = sched.Blocked
			if err := q.Remove(th, 0); err != nil {
				t.Fatal(err)
			}
		}
		// advance is the tag movement a charge of ran at φ must produce.
		advance := func(ran simtime.Duration, phi float64) float64 {
			return float64(ran) / float64(k.unit) / phi
		}

		t.Run(k.name+"/errors and accessors", func(t *testing.T) {
			q := k.new(2)
			a := mkThread(1, 1)
			add(t, q, a)
			if err := q.Add(a, 0); !errors.Is(err, sched.ErrAlreadyManaged) {
				t.Errorf("double add: %v", err)
			}
			if err := q.Remove(mkThread(9, 1), 0); !errors.Is(err, sched.ErrNotManaged) {
				t.Errorf("remove of a foreign thread: %v", err)
			}
			for _, w := range []float64{0, -2, math.NaN(), math.Inf(1)} {
				if err := q.Add(mkThread(2, w), 0); !errors.Is(err, sched.ErrBadWeight) {
					t.Errorf("add with weight %g: %v", w, err)
				}
				if err := q.SetWeight(a, w, 0); !errors.Is(err, sched.ErrBadWeight) {
					t.Errorf("SetWeight(%g): %v", w, err)
				}
			}
			if a.Weight != 1 || q.NumCPU() != 2 || q.Runnable() != 1 || len(q.Threads()) != 1 {
				t.Errorf("after rejected calls: w=%g cpus=%d runnable=%d threads=%d",
					a.Weight, q.NumCPU(), q.Runnable(), len(q.Threads()))
			}
			if got := q.Timeslice(a, 0); got != 200*simtime.Millisecond {
				t.Errorf("default quantum %v", got)
			}
			if got := mk(2).Timeslice(a, 0); got != traceQuantum {
				t.Errorf("WithQuantum: %v", got)
			}
			if q.Name() != k.name || mk(2, vtq.WithReadjustment()).Name() != k.name+"+readjust" {
				t.Errorf("names %q, %q", q.Name(), mk(2, vtq.WithReadjustment()).Name())
			}
		})

		t.Run(k.name+"/pick skips running threads", func(t *testing.T) {
			q := mk(2)
			a, b := mkThread(1, 1), mkThread(2, 1)
			add(t, q, a, b)
			q.Charge(a, traceQuantum, 0)
			if got := q.Pick(0, 0); got != b {
				t.Fatalf("Pick = %v, want the least tag (thread 2)", got)
			}
			b.CPU = 0
			if got := q.Pick(1, 0); got != a {
				t.Fatalf("Pick = %v, want thread 1 while 2 runs", got)
			}
			a.CPU = 1
			if got := q.Pick(0, 0); got != nil {
				t.Fatalf("Pick = %v with every thread running", got)
			}
		})

		t.Run(k.name+"/proportional on a uniprocessor", func(t *testing.T) {
			q := mk(1)
			a, b := mkThread(1, 3), mkThread(2, 1)
			add(t, q, a, b)
			for i := 0; i < 4000; i++ {
				th := q.Pick(0, 0)
				th.CPU = 0
				q.Charge(th, traceQuantum, 0)
				th.CPU = sched.NoCPU
			}
			if ratio := a.Service.Seconds() / b.Service.Seconds(); math.Abs(ratio-3) > 0.01 {
				t.Fatalf("service ratio %.4f, want 3", ratio)
			}
		})

		t.Run(k.name+"/readjustment on and off", func(t *testing.T) {
			for _, on := range []bool{false, true} {
				var opts []vtq.Option
				wantPhi := 10.0
				if on {
					opts, wantPhi = append(opts, vtq.WithReadjustment()), 1
				}
				q := mk(2, opts...)
				a, b := mkThread(1, 1), mkThread(2, 10)
				add(t, q, a, b)
				if a.Phi != 1 || b.Phi != wantPhi {
					t.Fatalf("readjust=%v: φ = %g, %g, want 1, %g", on, a.Phi, b.Phi, wantPhi)
				}
				q.Charge(b, traceQuantum, 0)
				if got, want := *k.tag(b), advance(traceQuantum, wantPhi); !near(got, want) {
					t.Fatalf("readjust=%v: charged tag %g, want %g", on, got, want)
				}
				if b.Service != traceQuantum {
					t.Fatalf("service %v", b.Service)
				}
			}
		})

		t.Run(k.name+"/SetWeight", func(t *testing.T) {
			q := mk(2, vtq.WithReadjustment())
			a, b := mkThread(1, 1), mkThread(2, 1)
			add(t, q, a, b)
			if err := q.SetWeight(b, 10, 0); err != nil {
				t.Fatal(err)
			}
			if b.Weight != 10 || b.Phi != 1 {
				t.Fatalf("runnable: w=%g φ=%g, want 10, 1 (capped)", b.Weight, b.Phi)
			}
			// A blocked thread only stores the weight; it takes effect when
			// the thread joins.
			c := mkThread(3, 1)
			if err := q.SetWeight(c, 4, 0); err != nil {
				t.Fatal(err)
			}
			if c.Weight != 4 || c.Phi != 4 || q.Runnable() != 2 {
				t.Fatalf("blocked: w=%g φ=%g runnable=%d", c.Weight, c.Phi, q.Runnable())
			}
			add(t, q, c)
			if a.Phi != 1 || b.Phi != 5 || c.Phi != 4 {
				t.Fatalf("after join: φ = %g, %g, %g, want 1, 5, 4", a.Phi, b.Phi, c.Phi)
			}
		})

		// before is the policy's documented order, written out independently.
		before := func(a, b *sched.Thread) int {
			ta, tb := *k.tag(a), *k.tag(b)
			if k.warped {
				ta, tb = ta-a.Warp, tb-b.Warp
			}
			switch {
			case ta != tb:
				return cmp.Compare(ta, tb)
			case k.byWgt && a.Weight != b.Weight:
				return cmp.Compare(b.Weight, a.Weight)
			}
			return cmp.Compare(a.ID, b.ID)
		}

		// Equal tags are ordered by weight (SFQ, BVT), so a weight change
		// must move a runnable thread at once, not at its next charge —
		// with and without a warp in the set (BVT's scan for v).
		t.Run(k.name+"/SetWeight repositions a runnable thread", func(t *testing.T) {
			for _, warp := range []float64{0, 0.5} {
				q := mk(1)
				a, b := mkThread(1, 1), mkThread(2, 2)
				add(t, q, a, b)
				q.SetWarp(a, warp)
				q.SetWarp(b, warp)
				if want := slices.MinFunc([]*sched.Thread{a, b}, before); q.Pick(0, 0) != want {
					t.Fatalf("warp %g: first in order is %v", warp, want)
				}
				if err := q.SetWeight(a, 3, 0); err != nil {
					t.Fatal(err)
				}
				if got := q.Pick(0, 0); got != a || q.Threads()[0] != a {
					t.Fatalf("warp %g: after SetWeight(a, 3) Pick = %v and Threads = %v, want thread 1 first", warp, got, q.Threads())
				}
			}
		})

		t.Run(k.name+"/queue order", func(t *testing.T) {
			const p = 8
			q, r := mk(p), xrand.New(3)
			var want []*sched.Thread
			for i := 0; i < 40; i++ {
				th := mkThread(i+1, float64(1+r.Intn(3)))
				want = append(want, th)
				add(t, q, th)
				q.SetWarp(th, float64(r.Intn(2))*traceQuantum.Seconds())
				q.Charge(th, simtime.Duration(r.Intn(4))*traceQuantum, 0) // tags tie in groups
			}
			slices.SortFunc(want, before)
			if got := q.Threads(); !slices.Equal(got, want) {
				t.Fatalf("Threads() = %v\nwant the policy's order %v", got, want)
			}
			for _, th := range want[:p-1] {
				th.CPU = 0
			}
			if got := q.Pick(p-1, 0); got != want[p-1] {
				t.Fatalf("with the first %d in order running Pick = %v, want %v", p-1, got, want[p-1])
			}
		})

		t.Run(k.name+"/join rule", func(t *testing.T) {
			q := mk(1)
			a, b, c := mkThread(1, 1), mkThread(2, 1), mkThread(3, 1)
			add(t, q, a, b, c)
			q.Charge(b, traceQuantum, 0)
			q.Charge(c, 100*traceQuantum, 0)
			block(t, q, b)
			block(t, q, c)
			for i := 0; i < 50; i++ {
				q.Charge(a, traceQuantum, 0)
			}
			if q.VirtualTime() != *k.tag(a) {
				t.Fatalf("v = %g, want the only runnable tag %g", q.VirtualTime(), *k.tag(a))
			}
			ahead := *k.rest(c)
			d := mkThread(4, 1)
			add(t, q, b, c, d)
			if *k.tag(b) != q.VirtualTime() {
				t.Errorf("wakeup behind v: tag %g, want v = %g", *k.tag(b), q.VirtualTime())
			}
			if *k.tag(c) != ahead {
				t.Errorf("wakeup ahead of v: tag %g, want its own %g", *k.tag(c), ahead)
			}
			if *k.tag(d) != q.VirtualTime() {
				t.Errorf("arrival: tag %g, want v = %g", *k.tag(d), q.VirtualTime())
			}
		})

		// DESIGN.md §1: all three take SFQ's rule for an emptied queue.
		t.Run(k.name+"/idle-queue virtual time", func(t *testing.T) {
			q := mk(1)
			a, b := mkThread(1, 1), mkThread(2, 2)
			add(t, q, a, b)
			q.Charge(a, 3*traceQuantum, 0)
			q.Charge(b, 8*traceQuantum, 0)
			a.CPU = 0
			block(t, q, b)
			block(t, q, a) // leaves mid-slice; the charge arrives afterwards
			if q.Runnable() != 0 || q.VirtualTime() != *k.tag(b) {
				t.Fatalf("emptied: v = %g, want the last charged tag %g", q.VirtualTime(), *k.tag(b))
			}
			q.Charge(a, traceQuantum, 0)
			if q.VirtualTime() != *k.tag(a) {
				t.Fatalf("charged while idle: v = %g, want %g", q.VirtualTime(), *k.tag(a))
			}
			c := mkThread(3, 1)
			add(t, q, c)
			if *k.tag(c) != *k.tag(a) || q.VirtualTime() != *k.tag(c) {
				t.Fatalf("arrival into an idle queue: tag %g, v %g, want %g", *k.tag(c), q.VirtualTime(), *k.tag(a))
			}
		})

		t.Run(k.name+"/frame lead round trip", func(t *testing.T) {
			src, dst := mk(1), mk(1)
			a, b, far := mkThread(1, 1), mkThread(2, 2), mkThread(3, 1)
			add(t, src, a, b)
			add(t, dst, far)
			src.Charge(a, traceQuantum, 0)
			src.Charge(b, 6*traceQuantum, 0)
			dst.Charge(far, 500*traceQuantum, 0)
			lead := src.FrameLead(b)
			if want := *k.tag(b) - src.VirtualTime(); lead != want || lead <= 0 {
				t.Fatalf("lead %g, want %g > 0", lead, want)
			}
			if err := src.Remove(b, 0); err != nil {
				t.Fatal(err)
			}
			dst.SetFrameLead(b, lead)
			add(t, dst, b)
			if got := dst.FrameLead(b); !near(got, lead) {
				t.Errorf("lead on the destination %g, want %g", got, lead)
			}
			if got := dst.FreshSurplus(b); !near(got, b.Phi*lead) {
				t.Errorf("surplus %g, want φ·lead = %g", got, b.Phi*lead)
			}
			if dst.VirtualTime() != *k.tag(far) {
				t.Errorf("the arrival moved the destination's v to %g", dst.VirtualTime())
			}
		})

		t.Run(k.name+"/ranks and interim charges", func(t *testing.T) {
			whole, split := mk(1), mk(1)
			a, b := mkThread(1, 3), mkThread(2, 1)
			x, y := mkThread(1, 3), mkThread(2, 1)
			add(t, whole, a, b)
			add(t, split, x, y)
			const ran = 17 * simtime.Millisecond
			if whole.Less(a, b) || whole.Less(b, a) {
				t.Fatal("Less on equal tags")
			}
			projected := whole.PreemptRank(a, ran)
			whole.Charge(a, ran, 0)
			for _, part := range []simtime.Duration{5, 9} {
				split.Charge(x, part*simtime.Millisecond, 0)
			}
			split.Charge(x, 3*simtime.Millisecond, 0)
			if got := *k.tag(a); !near(got, advance(ran, 3)) || !near(got, projected) {
				t.Errorf("tag %g, want %g = the rank projected before the charge %g", got, advance(ran, 3), projected)
			}
			if !near(*k.tag(x), *k.tag(a)) || !near(*k.rest(x), *k.rest(a)) || x.Service != a.Service {
				t.Errorf("installments: tag %g service %v, one charge: tag %g service %v",
					*k.tag(x), x.Service, *k.tag(a), a.Service)
			}
			if whole.VirtualTime() != split.VirtualTime() {
				t.Errorf("v %g vs %g", whole.VirtualTime(), split.VirtualTime())
			}
			if !whole.Less(b, a) || whole.Less(a, b) || !(whole.PreemptRank(b, 0) < whole.PreemptRank(a, 0)) {
				t.Error("Less and PreemptRank must both prefer the uncharged thread")
			}
		})
	}
}
