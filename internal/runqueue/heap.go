package runqueue

import "fmt"

// Heap is a binary min-heap with intrusive element→index handles, offering
// O(log n) insert/remove/fix and O(1) min. The surplus fair scheduler's
// start-tag and surplus queues use it in place of the paper's sorted lists:
// a charged thread typically jumps from the front of a queue to its middle,
// which costs O(rank distance) to reposition in any linked list but O(log n)
// here — the difference between the two is most of the per-decision cost on
// deep run queues (DESIGN.md §3). So does the weight queue (internal/phi): a
// woken thread's weight lands anywhere in the order, and Figure 2 reads only
// the heaviest few. Bounded traversals (pruned walks over At,
// AppendKSmallest) stand in for the list's ordered scans. Like List, the
// heap stores its per-element position in the element's Handle for the
// configured slot (the heap field, so a List and a Heap may share a slot).
type Heap[T Indexed[T]] struct {
	slot Slot
	less func(a, b T) bool
	vals []T
	kbuf []int32 // AppendKSmallest candidate-heap scratch
}

// NewHeap returns an empty heap on the given handle slot, ordered by less.
func NewHeap[T Indexed[T]](slot Slot, less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{slot: slot, less: less}
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
	h.vals = append(h.vals, x)
	hd.heap = int32(len(h.vals))
	h.up(len(h.vals) - 1)
}

// Min returns the least element without removing it.
func (h *Heap[T]) Min() (T, bool) {
	if len(h.vals) == 0 {
		var zero T
		return zero, false
	}
	return h.vals[0], true
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
	var zero T
	h.vals[last] = zero
	h.vals = h.vals[:last]
	if i < last && !h.down(i) {
		h.up(i)
	}
	return true
}

// Fix restores heap order after x's key changed.
func (h *Heap[T]) Fix(x T) bool {
	hd := x.RunqueueHandle(h.slot)
	if hd.heap == 0 {
		return false
	}
	i := int(hd.heap) - 1
	if !h.down(i) {
		h.up(i)
	}
	return true
}

// Each calls fn on every element in unspecified (heap storage) order until
// fn returns false. Use it for order-independent reductions and sweeps.
func (h *Heap[T]) Each(fn func(T) bool) {
	for _, x := range h.vals {
		if !fn(x) {
			return
		}
	}
}

// Init restores the heap invariant after many keys changed at once, in O(n).
func (h *Heap[T]) Init() {
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
func (h *Heap[T]) At(i int) T { return h.vals[i] }

// AppendKSmallest appends the k smallest elements, in ascending order, to
// dst and returns it — the §3.2 heuristic's bounded first-k examination and
// the readjustment's heaviest-p prefix.
// It runs a best-first search over the heap with a scratch index-heap of
// frontier candidates: O(k log k) comparisons, no allocation in steady
// state.
func (h *Heap[T]) AppendKSmallest(dst []T, k int) []T {
	if k <= 0 || len(h.vals) == 0 {
		return dst
	}
	cand := h.kbuf[:0]
	candLess := func(a, b int32) bool { return h.less(h.vals[a], h.vals[b]) }
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
		dst = append(dst, h.vals[top])
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

// Slice returns the elements in heap (not sorted) order; for tests.
func (h *Heap[T]) Slice() []T { return append([]T(nil), h.vals...) }

// Validate checks the heap invariant and handle agreement; tests and the
// simulator's paranoia mode call it after every operation.
func (h *Heap[T]) Validate() error {
	for i, x := range h.vals {
		if got := x.RunqueueHandle(h.slot).heap; int(got) != i+1 {
			return fmt.Errorf("runqueue: heap handle out of sync at %d (%v)", i, x)
		}
		if i > 0 {
			if p := (i - 1) / 2; h.less(x, h.vals[p]) {
				return fmt.Errorf("runqueue: heap order violated at %d (%v)", i, x)
			}
		}
	}
	return nil
}

// set stores x at position i and records the position in x's handle.
func (h *Heap[T]) set(i int, x T) {
	h.vals[i] = x
	x.RunqueueHandle(h.slot).heap = int32(i + 1)
}

// up and down sift the element at i by moving a hole: the elements it passes
// shift one level each and the element itself is stored once, at the end —
// half the handle writes of pairwise swaps, for the same final arrangement.
func (h *Heap[T]) up(i int) {
	x, from := h.vals[i], i
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(x, h.vals[parent]) {
			break
		}
		h.set(i, h.vals[parent])
		i = parent
	}
	if i != from {
		h.set(i, x)
	}
}

func (h *Heap[T]) down(i int) bool {
	x, from, n := h.vals[i], i, len(h.vals)
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.less(h.vals[r], h.vals[m]) {
			m = r
		}
		if !h.less(h.vals[m], x) {
			break
		}
		h.set(i, h.vals[m])
		i = m
	}
	if i == from {
		return false
	}
	h.set(i, x)
	return true
}
