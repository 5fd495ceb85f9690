package runqueue

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sfsched/internal/xrand"
)

// item is a mutable-key element for list tests, carrying its intrusive
// handles like sched.Thread does.
type item struct {
	id  int
	key float64
	rq  [NumSlots]Handle[*item]
}

func (it *item) RunqueueHandle(s Slot) *Handle[*item] { return &it.rq[s] }

func byKey(a, b *item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

func newItems(keys ...float64) []*item {
	out := make([]*item, len(keys))
	for i, k := range keys {
		out[i] = &item{id: i, key: k}
	}
	return out
}

func keysOf(s []*item) []float64 {
	out := make([]float64, len(s))
	for i, it := range s {
		out[i] = it.key
	}
	return out
}

// listSlice walks l from head to tail (the list itself no longer exports an
// ordered read).
func listSlice(l *List[*item]) []*item {
	var out []*item
	for n := l.head; n != nil; n = n.next {
		out = append(out, n.val)
	}
	return out
}

func TestListInsertSorted(t *testing.T) {
	l := NewList(SlotPrimary, byKey)
	for _, it := range newItems(5, 1, 3, 2, 4) {
		l.Insert(it)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	got := keysOf(listSlice(l))
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestListRemove(t *testing.T) {
	l := NewList(SlotPrimary, byKey)
	items := newItems(1, 2, 3)
	for _, it := range items {
		l.Insert(it)
	}
	if !l.Remove(items[1]) {
		t.Fatal("Remove returned false for present element")
	}
	if l.Remove(items[1]) {
		t.Fatal("Remove returned true for absent element")
	}
	if l.Contains(items[1]) {
		t.Fatal("removed element still present")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestListDuplicatePanics(t *testing.T) {
	l := NewList(SlotPrimary, byKey)
	it := &item{id: 1, key: 1}
	l.Insert(it)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	l.Insert(it)
}

func TestListFIFOTieBreakByInsertion(t *testing.T) {
	// Equal keys: later insertions land after earlier ones.
	l := NewList(SlotPrimary, func(a, b *item) bool { return a.key < b.key })
	a := &item{id: 1, key: 5}
	b := &item{id: 2, key: 5}
	l.Insert(a)
	l.Insert(b)
	s := listSlice(l)
	if s[0] != a || s[1] != b {
		t.Fatal("tie-break is not FIFO")
	}
}

// TestListRandomOps drives the list with a random operation mix and checks
// invariants after every step (the property test backing the §3.1 queue
// machinery).
func TestListRandomOps(t *testing.T) {
	r := xrand.New(99)
	l := NewList(SlotPrimary, byKey)
	var pool []*item
	id := 0
	for step := 0; step < 5000; step++ {
		switch op := r.Intn(10); {
		case op < 6: // insert
			id++
			it := &item{id: id, key: r.Float64() * 100}
			pool = append(pool, it)
			l.Insert(it)
		case len(pool) > 0: // remove
			i := r.Intn(len(pool))
			l.Remove(pool[i])
			pool = append(pool[:i], pool[i+1:]...)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if l.Len() != len(pool) {
			t.Fatalf("step %d: len %d, want %d", step, l.Len(), len(pool))
		}
	}
}

func TestHeapBasics(t *testing.T) {
	h := NewHeap(SlotPrimary, byKey)
	items := newItems(5, 1, 4, 2, 3)
	for _, it := range items {
		h.Push(it)
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d", h.Len())
	}
	if m, _ := h.Min(); m.key != 1 {
		t.Fatalf("Min %g", m.key)
	}
	if !h.Contains(items[0]) {
		t.Fatal("Contains false for present")
	}
	if !h.Remove(items[1]) { // the key-1 element
		t.Fatal("Remove failed")
	}
	if m, _ := h.Min(); m.key != 2 {
		t.Fatalf("Min after remove %g", m.key)
	}
	items[0].key = 0 // key 5 -> 0
	h.Fix(items[0])
	if m, _ := h.Min(); m != items[0] {
		t.Fatal("Fix did not float element up")
	}
}

func TestHeapEmptyMin(t *testing.T) {
	h := NewHeap(SlotPrimary, byKey)
	if _, ok := h.Min(); ok {
		t.Fatal("empty heap has a min")
	}
	if h.Remove(&item{}) {
		t.Fatal("Remove on empty heap returned true")
	}
}

func TestHeapDuplicatePanics(t *testing.T) {
	h := NewHeap(SlotPrimary, byKey)
	it := &item{id: 1}
	h.Push(it)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate push did not panic")
		}
	}()
	h.Push(it)
}

// TestHeapMatchesSort drains random heaps and checks sorted output.
func TestHeapMatchesSort(t *testing.T) {
	r := xrand.New(123)
	for trial := 0; trial < 50; trial++ {
		h := NewHeap(SlotPrimary, byKey)
		n := 1 + r.Intn(100)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = r.Float64() * 1000
			h.Push(&item{id: i, key: keys[i]})
		}
		sort.Float64s(keys)
		for i := 0; i < n; i++ {
			m, ok := h.Min()
			if !ok || m.key != keys[i] {
				t.Fatalf("trial %d: drain %d got %v want %g", trial, i, m, keys[i])
			}
			h.Remove(m)
		}
	}
}

// coarseKey is a heap key that byKey is monotone in and that ties often, so
// that the keyed heap's order is decided by the cached key on some sift levels
// and by less on others.
func coarseKey(it *item) float64 { return math.Floor(it.key) }

// TestHeapRandomOps drives the heap — keyed and unkeyed — through random
// Push / Remove / key change + Fix / bulk key change + Init against a sorted
// slice: after every step Validate passes, the minimum is the oracle's, and
// AppendKSmallest returns the oracle's prefix. A sift picks the lesser child
// on the cached keys and asks less only between equal ones: the constant key
// sends every level to less, and the deep heap (≥ 4 096 elements, sifts of
// ≥ 12 levels) meets equal coarse keys at every depth.
func TestHeapRandomOps(t *testing.T) {
	for name, tc := range map[string]struct {
		mk           func() *Heap[*item]
		prefill, ops int
	}{
		"unkeyed":      {func() *Heap[*item] { return NewHeap(SlotPrimary, byKey) }, 0, 5000},
		"keyed":        {func() *Heap[*item] { return NewKeyedHeap(SlotPrimary, coarseKey, byKey) }, 0, 5000},
		"constant key": {func() *Heap[*item] { return NewKeyedHeap(SlotPrimary, func(*item) float64 { return 3 }, byKey) }, 0, 5000},
		"deep":         {func() *Heap[*item] { return NewKeyedHeap(SlotPrimary, coarseKey, byKey) }, 4096, 1000},
	} {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(321)
			h := tc.mk()
			var pool, got []*item
			id := 0
			for ; id < tc.prefill; id++ {
				it := &item{id: id, key: r.Float64() * 8}
				pool = append(pool, it)
				h.Push(it)
			}
			for step := 0; step < tc.ops; step++ {
				switch op := r.Intn(20); {
				case op < 9:
					id++
					it := &item{id: id, key: r.Float64() * 8}
					pool = append(pool, it)
					h.Push(it)
				case op < 13 && len(pool) > 0:
					i := r.Intn(len(pool))
					if !h.Remove(pool[i]) || h.Contains(pool[i]) {
						t.Fatalf("step %d: Remove of a present element failed", step)
					}
					pool = append(pool[:i], pool[i+1:]...)
				case op < 19 && len(pool) > 0:
					it := pool[r.Intn(len(pool))]
					it.key = r.Float64() * 8
					h.Fix(it)
				case len(pool) > 0: // many keys at once, one Init
					shift := r.Float64() * 3
					for _, it := range pool {
						if r.Intn(2) == 0 {
							it.key += shift
						}
					}
					h.Init()
				}
				if h.Len() != len(pool) {
					t.Fatalf("step %d: len %d, want %d", step, h.Len(), len(pool))
				}
				if err := h.Validate(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				sort.Slice(pool, func(i, j int) bool { return byKey(pool[i], pool[j]) })
				if m, ok := h.Min(); ok != (len(pool) > 0) || ok && m != pool[0] {
					t.Fatalf("step %d: heap min %v, sorted min %v", step, m, pool[:min(1, len(pool))])
				}
				k := r.Intn(12)
				got = h.AppendKSmallest(got[:0], k)
				if want := pool[:min(k, len(pool))]; !slices.Equal(got, want) {
					t.Fatalf("step %d: AppendKSmallest(%d) = %v, want %v", step, k, keysOf(got), keysOf(want))
				}
			}
		})
	}
}

// TestHeapValidateReportsStaleKey is the key contract's other half: the heap
// re-reads a key only on Fix and Init, so one that changed without either is
// a stale position, and Validate must say so even when the heap order over the
// cached keys still holds.
func TestHeapValidateReportsStaleKey(t *testing.T) {
	h := NewKeyedHeap(SlotPrimary, coarseKey, byKey)
	items := newItems(1, 2, 3, 4)
	for _, it := range items {
		h.Push(it)
	}
	items[3].key = 9 // a leaf that grew: still in heap order
	if err := h.Validate(); err == nil {
		t.Fatal("Validate accepted a key that changed without Fix")
	}
	h.Fix(items[3])
	if err := h.Validate(); err != nil {
		t.Fatalf("after Fix: %v", err)
	}
	items[0].key = 7 // the root moved below its children
	h.Init()
	if err := h.Validate(); err != nil {
		t.Fatalf("after Init: %v", err)
	}
	if m, _ := h.Min(); m != items[1] {
		t.Fatalf("Min after Init is %v, want the key-2 element", m)
	}
}

// shifty is an element that can break the handle contract: its handle lives
// outside it and can be swapped while the element is queued.
type shifty struct {
	key float64
	hd  *Handle[*shifty]
}

func (s *shifty) RunqueueHandle(Slot) *Handle[*shifty] { return s.hd }

// TestHeapValidateReportsForeignHandle is the handle contract's other half: a
// position caches the pointer RunqueueHandle returned at Push and every sift
// writes through it, so an element that starts answering with another Handle —
// even one holding the right position — has left the heap writing to a handle
// nobody reads, and Validate must say so before a sift makes the two disagree.
func TestHeapValidateReportsForeignHandle(t *testing.T) {
	h := NewKeyedHeap(SlotPrimary, func(s *shifty) float64 { return s.key },
		func(a, b *shifty) bool { return a.key < b.key })
	var items []*shifty
	for _, k := range []float64{1, 2, 3, 4} {
		it := &shifty{key: k, hd: new(Handle[*shifty])}
		items = append(items, it)
		h.Push(it)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	own := items[2].hd
	copied := *own
	items[2].hd = &copied // same position, another Handle
	err := h.Validate()
	if err == nil || !strings.Contains(err.Error(), "foreign handle") {
		t.Fatalf("Validate on a swapped handle: %v, want a foreign-handle report", err)
	}
	items[2].hd = own
	if err := h.Validate(); err != nil {
		t.Fatalf("after the element's own handle is back: %v", err)
	}
}

func TestListSortedAfterArbitraryInserts(t *testing.T) {
	// testing/quick property: any insertion order yields a sorted list
	// with all elements present.
	f := func(keys []float64) bool {
		l := NewList(SlotPrimary, byKey)
		for i, k := range keys {
			l.Insert(&item{id: i, key: k})
		}
		if l.Len() != len(keys) {
			return false
		}
		s := listSlice(l)
		for i := 1; i < len(s); i++ {
			if byKey(s[i], s[i-1]) {
				return false
			}
		}
		return l.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapMinIsGlobalMin(t *testing.T) {
	f := func(keys []float64) bool {
		if len(keys) == 0 {
			return true
		}
		h := NewHeap(SlotPrimary, byKey)
		best := &item{id: 0, key: keys[0]}
		h.Push(best)
		for i := 1; i < len(keys); i++ {
			it := &item{id: i, key: keys[i]}
			h.Push(it)
			if byKey(it, best) {
				best = it
			}
		}
		m, ok := h.Min()
		return ok && m == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
