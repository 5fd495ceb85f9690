package runqueue

import "fmt"

// Heap is a binary min-heap with intrusive element→index handles, offering
// O(log n) insert/remove/fix and O(1) min. The surplus fair scheduler's
// φ-class queues, the GPS-tag run queue (internal/vtq) and the weight queue
// (internal/phi) use it in place of the paper's sorted lists: a charged thread
// typically jumps from the front of a queue to its middle — O(rank distance)
// in any linked list, O(log n) here — and Figure 2 reads only the heaviest
// few weights (DESIGN.md §3). Bounded
// traversals (pruned walks over At, AppendKSmallest) stand in for the list's
// ordered scans. Like List, the heap stores its per-element position in the
// element's Handle for the configured slot (the heap field, so a List and a
// Heap may share a slot).
//
// A heap position is 24 bytes for a pointer element: a float64 key, the element
// and the element's Handle for the heap's slot. The order is (key, then less):
// a sift level compares two numbers of one contiguous array, calls less — which
// dereferences both elements — only when they are equal, and records a moved
// element's position through the handle pointer beside it, never through the
// element; a caller's walk may judge position i by KeyAt(i) before it touches
// At(i). The handle contract: Push reads x.RunqueueHandle(slot) once, and until
// x is removed that call must keep returning the same pointer — Validate
// reports a position whose pointer is not its element's. The key contract of
// NewKeyedHeap: key is monotone in less (less(a, b) implies key(a) ≤ key(b)),
// so the order is less's own; the heap reads key(x) on Push, re-reads it on
// Fix(x) and, for every element, on Init, and at no other time — Validate
// reports a key that changed without one of the two. A NewHeap heap is the same
// heap with the constant key 0: less decides alone.
type Heap[T Indexed[T]] struct {
	slot Slot
	key  func(T) float64
	less func(a, b T) bool
	vals []entry[T]
	kbuf []int32 // AppendKSmallest candidate-heap scratch
}

// entry is one heap position: the element, its cached key and its handle.
type entry[T any] struct {
	key float64
	x   T
	hd  *Handle[T]
}

// NewHeap returns an empty heap on the given handle slot, ordered by less.
func NewHeap[T Indexed[T]](slot Slot, less func(a, b T) bool) *Heap[T] {
	return NewKeyedHeap(slot, func(T) float64 { return 0 }, less)
}

// NewKeyedHeap returns an empty heap on the given handle slot, ordered by key
// and, between equal keys, by less. key must be monotone in less.
func NewKeyedHeap[T Indexed[T]](slot Slot, key func(T) float64, less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{slot: slot, key: key, less: less}
}

// before is the heap's order over positions.
func (h *Heap[T]) before(a, b entry[T]) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return h.less(a.x, b.x)
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.vals) }

// Contains reports whether x is present.
func (h *Heap[T]) Contains(x T) bool {
	return x.RunqueueHandle(h.slot).heap != 0
}

// Push inserts x. It panics on duplicates, matching List.Insert.
func (h *Heap[T]) Push(x T) {
	hd := x.RunqueueHandle(h.slot)
	if hd.heap != 0 {
		panic("runqueue: duplicate heap push")
	}
	h.vals = append(h.vals, entry[T]{h.key(x), x, hd})
	hd.heap = int32(len(h.vals))
	h.up(len(h.vals) - 1)
}

// Min returns the least element without removing it.
func (h *Heap[T]) Min() (T, bool) {
	if len(h.vals) == 0 {
		var zero T
		return zero, false
	}
	return h.vals[0].x, true
}

// Remove deletes x, reporting whether it was present.
func (h *Heap[T]) Remove(x T) bool {
	hd := x.RunqueueHandle(h.slot)
	if hd.heap == 0 {
		return false
	}
	i := int(hd.heap) - 1
	last := len(h.vals) - 1
	hd.heap = 0
	if i < last {
		h.set(i, h.vals[last])
	}
	h.vals[last] = entry[T]{}
	h.vals = h.vals[:last]
	if i < last && !h.down(i) {
		h.up(i)
	}
	return true
}

// Fix re-reads x's key and restores heap order after it changed.
func (h *Heap[T]) Fix(x T) bool {
	hd := x.RunqueueHandle(h.slot)
	if hd.heap == 0 {
		return false
	}
	i := int(hd.heap) - 1
	h.vals[i].key = h.key(x)
	if !h.down(i) {
		h.up(i)
	}
	return true
}

// Each calls fn on every element in unspecified (heap storage) order until
// fn returns false. Use it for order-independent reductions and sweeps.
func (h *Heap[T]) Each(fn func(T) bool) {
	for _, e := range h.vals {
		if !fn(e.x) {
			return
		}
	}
}

// Init re-reads every key and restores the heap invariant after many changed
// at once, in O(n).
func (h *Heap[T]) Init() {
	for i := range h.vals {
		h.vals[i].key = h.key(h.vals[i].x)
	}
	for i := len(h.vals)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// At returns the element at heap position i (0 is the minimum; the children
// of i sit at 2i+1 and 2i+2). Ancestors precede descendants in heap order, so
// a caller's pruned depth-first walk — visit i, descend only while the key is
// within a cut — sees every element within the cut, even a cut that tightens
// during the walk: an element within the final cut has all its ancestors
// within it too. The scheduler enumerates the candidates of a pick this way,
// with its own position stack, in place of the list's ordered scan.
func (h *Heap[T]) At(i int) T { return h.vals[i].x }

// KeyAt returns the cached key of position i without touching the element, so
// a walk whose cut is a function of the key prunes on the heap's own array.
func (h *Heap[T]) KeyAt(i int) float64 { return h.vals[i].key }

// AppendKSmallest appends the k smallest elements, in ascending order, to
// dst and returns it — the GPS-tag kernel's first p+1 in queue order and the
// readjustment's heaviest-p prefix.
// It runs a best-first search over the heap with a scratch index-heap of
// frontier candidates: O(k log k) comparisons, no allocation in steady
// state.
func (h *Heap[T]) AppendKSmallest(dst []T, k int) []T {
	if k <= 0 || len(h.vals) == 0 {
		return dst
	}
	cand := h.kbuf[:0]
	candLess := func(a, b int32) bool { return h.before(h.vals[a], h.vals[b]) }
	push := func(i int32) {
		cand = append(cand, i)
		for j := len(cand) - 1; j > 0; {
			p := (j - 1) / 2
			if !candLess(cand[j], cand[p]) {
				break
			}
			cand[j], cand[p] = cand[p], cand[j]
			j = p
		}
	}
	push(0)
	for len(cand) > 0 && k > 0 {
		top := cand[0]
		last := len(cand) - 1
		cand[0] = cand[last]
		cand = cand[:last]
		for j := 0; ; {
			l, r := 2*j+1, 2*j+2
			if l >= len(cand) {
				break
			}
			m := l
			if r < len(cand) && candLess(cand[r], cand[l]) {
				m = r
			}
			if !candLess(cand[m], cand[j]) {
				break
			}
			cand[j], cand[m] = cand[m], cand[j]
			j = m
		}
		dst = append(dst, h.vals[top].x)
		k--
		if l := 2*top + 1; int(l) < len(h.vals) {
			push(l)
			if r := l + 1; int(r) < len(h.vals) {
				push(r)
			}
		}
	}
	h.kbuf = cand[:0]
	return dst
}

// Validate checks the heap invariant, handle agreement (each cached handle is
// its element's own and holds the position) and that every cached key is the
// element's current key; tests and paranoia mode call it after every operation.
func (h *Heap[T]) Validate() error {
	for i, e := range h.vals {
		hd := e.x.RunqueueHandle(h.slot)
		if e.hd != hd {
			return fmt.Errorf("runqueue: heap caches a foreign handle at %d (%v)", i, e.x)
		}
		if int(hd.heap) != i+1 {
			return fmt.Errorf("runqueue: heap handle out of sync at %d (%v)", i, e.x)
		}
		if want := h.key(e.x); e.key != want {
			return fmt.Errorf("runqueue: heap caches key %g at %d, %v now has %g (changed without Fix)", e.key, i, e.x, want)
		}
		if i > 0 {
			if p := (i - 1) / 2; h.before(e, h.vals[p]) {
				return fmt.Errorf("runqueue: heap order violated at %d (%v)", i, e.x)
			}
		}
	}
	return nil
}

// set stores e at position i and records the position in its element's handle.
func (h *Heap[T]) set(i int, e entry[T]) {
	h.vals[i] = e
	e.hd.heap = int32(i + 1)
}

// up and down sift the element at i by moving a hole: the elements it passes
// shift one level each and the element itself is stored once, at the end —
// half the handle writes of pairwise swaps, for the same final arrangement.
func (h *Heap[T]) up(i int) {
	e, from := h.vals[i], i
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(e, h.vals[parent]) {
			break
		}
		h.set(i, h.vals[parent])
		i = parent
	}
	if i != from {
		h.set(i, e)
	}
}

func (h *Heap[T]) down(i int) bool {
	e, from, n := h.vals[i], i, len(h.vals)
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.before(h.vals[r], h.vals[m]) {
			m = r
		}
		if !h.before(h.vals[m], e) {
			break
		}
		h.set(i, h.vals[m])
		i = m
	}
	if i == from {
		return false
	}
	h.set(i, e)
	return true
}
