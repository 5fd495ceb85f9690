// Package hier implements two-level hierarchical surplus fair scheduling —
// the extension the paper's §5 names as an open research problem ("SFS is a
// single-level scheduler... The design of hierarchical schedulers for
// multiprocessor environments remains an open research problem").
//
// Threads are aggregated into weighted classes; CPU bandwidth divides among
// classes in proportion to class weights, then within each class among its
// threads in proportion to thread weights. The multiprocessor wrinkle is
// feasibility at both levels: a thread's rate is capped at one CPU, and a
// class's rate is capped at min(runnable threads, p) CPUs.
//
// # Design: flatten the tree into rates
//
// A naive composition — pick a class by class-level SFS, then delegate to a
// per-class inner SFS — cannot express allocations like "thread A holds one
// CPU continuously while its sibling B receives a third of another": the
// class level sees only aggregate class service, so whichever sibling
// happens to hold the slot keeps it, and intra-class shares drift toward
// equality (we measured exactly that before switching designs). Instead,
// this package computes every thread's *hierarchical GMS rate* directly by
// nested water-filling (readjust.Filler):
//
//  1. class rates: capacity p divided by class weights, per-class cap
//     min(runnable_c, p);
//  2. thread rates: each class's rate divided by thread weights, per-thread
//     cap 1 CPU.
//
// The resulting rate is the thread's instantaneous weight φ_i in a single
// flat surplus-fair queue: start tags advance by q/φ_i and the least-surplus
// thread runs, exactly as in flat SFS. Since Σφ_i = min(p, n) and each
// φ_i ≤ 1, the flat scheduler delivers service proportional to φ — which is
// by construction the hierarchical GMS allocation. Figure 2's readjustment
// is the special case of this tree with every thread in its own class.
//
// # Composition: one kernel, two φ sources
//
// The flat queue is internal/core's: a Hier is a core.SFS kernel (tags,
// virtual time, the lazily refreshed surplus queue, picks, preemption ranks,
// frame translation, batch admission) whose core.PhiSource is this package's
// class table instead of Figure 2's phi.Tracker. The table owns what is
// hierarchical — classes, the thread→class assignment, class weights, class
// membership of the runnable set, the rates — and nothing else; per-class
// service is the one quantity accounted outside it, in the Charge wrapper.
// The readjustment pass reuses scratch buffers and skips classes whose rate
// and membership are unchanged since the previous pass — on a
// class-partitioned workload the common arrival/departure only recomputes the
// affected class, and the kernel's per-thread φ hook repositions only that
// class's threads.
package hier

import (
	"fmt"
	"slices"

	"sfsched/internal/core"
	"sfsched/internal/readjust"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// Class is a scheduling class: a weight and the set of member threads.
type Class struct {
	name    string
	weight  float64
	phi     float64 // readjusted class rate, in CPUs
	members []*sched.Thread
	service simtime.Duration

	dirty  bool    // membership or a member weight changed since last pass
	maxPhi float64 // largest member φ after the last recomputation
	tw, tc []float64
	rates  []float64
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Weight returns the class weight.
func (c *Class) Weight() float64 { return c.weight }

// Rate returns the class's current GMS rate in CPUs.
func (c *Class) Rate() float64 { return c.phi }

// Service returns the total CPU service delivered to the class's threads so
// far, in seconds.
func (c *Class) Service() float64 { return c.service.Seconds() }

// Hier is a two-level hierarchical SFS scheduler: the SFS kernel over a
// class table. Not safe for concurrent use.
type Hier struct {
	*core.SFS
	tab *table
}

// table is the kernel's φ source: the classes, which class each thread
// belongs to, and the nested water-fill that turns both levels of weights
// into per-thread rates. Membership lives here, behind the seam, because
// every path by which the kernel admits or drops a thread (Add, AddBatch,
// Remove) reports it here and only here.
type table struct {
	p       int
	classes []*Class
	byName  map[string]*Class
	assign  map[*sched.Thread]*Class
	def     *Class

	n      int     // tracked (runnable) threads
	sum    float64 // Σ w_i over them
	maxPhi float64 // largest φ among them
	passes int64
	onPhi  func(*sched.Thread)

	// Readjustment scratch, reused across passes.
	classFiller  readjust.Filler
	threadFiller readjust.Filler
	active       []*Class
	weights      []float64
	caps         []float64
	rates        []float64
}

// New returns a hierarchical scheduler for p processors with a default
// class of weight 1 (threads not explicitly assigned go there).
func New(p int, quantum simtime.Duration) *Hier {
	tab := &table{
		p:      p,
		byName: make(map[string]*Class),
		assign: make(map[*sched.Thread]*Class),
	}
	h := &Hier{SFS: core.NewOver(p, quantum, tab), tab: tab}
	tab.def = h.MustAddClass("default", 1)
	return h
}

// AddClass creates a scheduling class. Class weights, like thread weights,
// must be positive.
func (h *Hier) AddClass(name string, weight float64) (*Class, error) {
	if !sched.ValidWeight(weight) {
		return nil, fmt.Errorf("%w: %g", sched.ErrBadWeight, weight)
	}
	if _, dup := h.tab.byName[name]; dup {
		return nil, fmt.Errorf("hier: duplicate class %q", name)
	}
	c := &Class{name: name, weight: weight, phi: weight}
	h.tab.classes = append(h.tab.classes, c)
	h.tab.byName[name] = c
	return c, nil
}

// MustAddClass is AddClass for static configuration.
func (h *Hier) MustAddClass(name string, weight float64) *Class {
	c, err := h.AddClass(name, weight)
	if err != nil {
		panic(err)
	}
	return c
}

// Assign routes a thread to a class; call before Add. Unassigned threads go
// to the default class. The mapping belongs to this instance: under the
// sharded runtime each shard owns its own class table, so a thread migrated
// here from another shard (or machine) lands in the class this instance's
// Assign names for it, or in the default class; only its frame lead travels.
func (h *Hier) Assign(t *sched.Thread, c *Class) { h.tab.assign[t] = c }

// ClassOf returns the class a thread is (or would be) scheduled in.
func (h *Hier) ClassOf(t *sched.Thread) *Class { return h.tab.classOf(t) }

func (tb *table) classOf(t *sched.Thread) *Class {
	if c, ok := tb.assign[t]; ok {
		return c
	}
	return tb.def
}

// SetClassWeight changes a class weight at runtime.
func (h *Hier) SetClassWeight(c *Class, w float64) error {
	if !sched.ValidWeight(w) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, w)
	}
	c.weight = w
	h.tab.Readjust()
	return nil
}

// Classes returns the configured classes (including the default class).
func (h *Hier) Classes() []*Class { return append([]*Class(nil), h.tab.classes...) }

// Name implements sched.Scheduler.
func (h *Hier) Name() string { return "hier-SFS" }

// Hier implements the full capability set the sharded runtime can exploit,
// all but the two charge methods through the embedded kernel.
var (
	_ sched.Scheduler       = (*Hier)(nil)
	_ sched.VirtualTimer    = (*Hier)(nil)
	_ sched.LagReporter     = (*Hier)(nil)
	_ sched.FrameTranslator = (*Hier)(nil)
	_ sched.Preempter       = (*Hier)(nil)
	_ sched.InterimCharger  = (*Hier)(nil)
	_ sched.BatchAdder      = (*Hier)(nil)
)

// Charge implements sched.Scheduler: the kernel's F = S + q/φ with the
// hierarchical φ, plus the per-class service account.
func (h *Hier) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	h.SFS.Charge(t, ran, now)
	h.tab.classOf(t).service += ran
}

// InterimCharge implements sched.InterimCharger. It must be redeclared here:
// the kernel's own InterimCharge calls the kernel's Charge, which would skip
// the class account.
func (h *Hier) InterimCharge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	h.Charge(t, ran, now)
}

// OnPhiChange implements core.PhiSource.
func (tb *table) OnPhiChange(fn func(*sched.Thread)) { tb.onPhi = fn }

// Sum implements core.PhiSource.
func (tb *table) Sum() float64 { return tb.sum }

// MaxPhi implements core.PhiSource. Unlike Figure 2's φ_i ≤ w_i, a
// hierarchical rate can exceed the thread's requested weight (a weight-0.1
// thread alone in its class still fills a CPU), so the bound is the largest
// rate itself.
func (tb *table) MaxPhi() float64 { return tb.maxPhi }

// Len implements core.PhiSource.
func (tb *table) Len() int { return tb.n }

// Passes implements core.PhiSource.
func (tb *table) Passes() int64 { return tb.passes }

// Add implements core.PhiSource.
func (tb *table) Add(t *sched.Thread) bool {
	tb.AddDeferred(t)
	return tb.Readjust()
}

// AddDeferred implements core.PhiSource: t joins its class. Its φ stays
// whatever it last was (the requested weight for a new thread) until the
// pass that follows assigns its rate.
func (tb *table) AddDeferred(t *sched.Thread) {
	c := tb.classOf(t)
	c.members = append(c.members, t)
	c.dirty = true
	tb.n++
	tb.sum += t.Weight
	tb.onPhi(t)
}

// Remove implements core.PhiSource. The departing thread keeps its last
// rate, which is what a charge for a slice it is still finishing divides by.
func (tb *table) Remove(t *sched.Thread) bool {
	c := tb.classOf(t)
	i := slices.Index(c.members, t)
	if i < 0 {
		return false
	}
	c.members = slices.Delete(c.members, i, i+1)
	c.dirty = true
	tb.n--
	tb.sum -= t.Weight
	if t.State == sched.Exited {
		delete(tb.assign, t)
	}
	return tb.Readjust()
}

// UpdateWeight implements core.PhiSource (thread weight within its class).
func (tb *table) UpdateWeight(t *sched.Thread, w float64) bool {
	tb.sum += w - t.Weight
	t.Weight = w
	tb.classOf(t).dirty = true
	tb.Readjust()
	tb.onPhi(t) // weight breaks surplus ties, so t may move even at an unchanged rate
	return true
}

// Readjust implements core.PhiSource: it recomputes tracked threads' φ as
// their hierarchical GMS rates — nested water-filling, classes first, then
// threads within each class. A class whose rate is unchanged and whose
// membership and member weights are untouched since the previous pass keeps
// its thread rates — water-filling is deterministic, so skipping the
// recomputation is exact, and an arrival/departure in one class that leaves
// sibling rates unchanged costs only that class's pass.
func (tb *table) Readjust() bool {
	tb.active = tb.active[:0]
	tb.weights = tb.weights[:0]
	tb.caps = tb.caps[:0]
	for _, c := range tb.classes {
		if len(c.members) == 0 {
			c.dirty = false
			continue
		}
		tb.active = append(tb.active, c)
		tb.weights = append(tb.weights, c.weight)
		tb.caps = append(tb.caps, float64(min(len(c.members), tb.p)))
	}
	tb.maxPhi = 0
	if len(tb.active) == 0 {
		return false
	}
	tb.rates = tb.classFiller.Fill(tb.rates, tb.weights, tb.caps, float64(tb.p))
	changed := false
	for i, c := range tb.active {
		// Same class rate, same members, same member weights: the inner
		// water-fill would reproduce the φ values the members hold.
		if c.dirty || c.phi != tb.rates[i] {
			c.phi = tb.rates[i]
			c.tw = c.tw[:0]
			c.tc = c.tc[:0]
			for _, t := range c.members {
				c.tw = append(c.tw, t.Weight)
				c.tc = append(c.tc, 1) // a thread can hold at most one CPU
			}
			c.rates = tb.threadFiller.Fill(c.rates, c.tw, c.tc, c.phi)
			c.maxPhi = 0
			for j, t := range c.members {
				if t.Phi != c.rates[j] {
					t.Phi = c.rates[j]
					changed = true
					tb.onPhi(t)
				}
				c.maxPhi = max(c.maxPhi, t.Phi)
			}
			c.dirty = false
		}
		tb.maxPhi = max(tb.maxPhi, c.maxPhi)
	}
	if changed {
		tb.passes++
	}
	return changed
}

// Validate implements core.PhiSource: every tracked thread sits in exactly
// the class its assignment names.
func (tb *table) Validate() error {
	n := 0
	for _, c := range tb.classes {
		n += len(c.members)
		for _, t := range c.members {
			if got := tb.classOf(t); got != c {
				return fmt.Errorf("hier: %v is a member of class %q but assigned to %q", t, c.name, got.name)
			}
		}
	}
	if n != tb.n {
		return fmt.Errorf("hier: classes hold %d threads, table tracks %d", n, tb.n)
	}
	return nil
}
