// Package runqueue provides the run-queue structure every scheduler in this
// repository orders its threads with (§3.1–3.2).
//
// Heap is that structure: SFS's φ-class heaps and the two class-level heaps
// over them, the GPS-tag kernel's run queue (internal/vtq) and
// readjust.Tracker's weight queue — O(log n) because their readers need only
// the head, a bounded ordered prefix (AppendKSmallest) or a pruned walk (At),
// never an order over everything. A heap position carries a float64 key beside the element
// (NewKeyedHeap): the key must be monotone in the heap's less, and Fix and
// Init are the two calls that re-read it.
//
// The implementation of SFS in Linux 2.2.14 kept sorted doubly-linked lists
// instead, with O(1) deletion and linear-time sorted insertion. List is that
// structure cut down to insert and remove; no scheduler uses it, and it is
// kept only for the benchmark's runqueue.list.insert_ns row (cmd/sfsbench),
// which prices it against the heap.
//
// # Intrusive handles
//
// Like the kernel's task_struct (which embeds its run-queue links directly),
// elements carry their own queue handles: an element reserves one Handle per
// Slot and exposes them through the Indexed interface. Membership tests,
// removal and repositioning are then pointer dereferences instead of hash
// lookups, and the auxiliary map the first implementation of this package
// used — one hash insert/delete per blocking/wakeup transition, a hash
// lookup per Fix — disappears from the hot path entirely. The cost is the
// kernel's own trade-off: an element can be in at most one queue per slot at
// a time, which run queues satisfy by construction (a thread is managed by
// exactly one scheduler).
package runqueue

import (
	"errors"
	"fmt"
)

// List is a sorted doubly-linked list over elements of type T with intrusive
// position handles for O(1) membership tests and removal. The sort order is
// defined by the less function at construction time; keys live inside the
// elements and must not change while the element is in the list.
type List[T Indexed[T]] struct {
	slot Slot
	less func(a, b T) bool
	head *Node[T]
	tail *Node[T]
	free *Node[T] // recycled nodes, chained through next
	n    int
}

// Slot identifies which of an element's intrusive handles a queue uses.
// Queues whose element sets may overlap must use distinct slots; the three
// kernel run queues get one slot each. Policies other than SFS reuse
// SlotPrimary for their single policy queue (pass order, effective virtual
// time, ...), since a thread is managed by one scheduler at a time.
type Slot uint8

// The handle slots reserved on every element.
const (
	// SlotWeight is the weight queue: readjust.Tracker's heap, heaviest first.
	SlotWeight Slot = iota
	// SlotPrimary is the policy's main queue: ascending start tags for SFQ
	// (SFS leaves it unused), pass order for stride, effective virtual time
	// for BVT.
	SlotPrimary
	// SlotSurplus is the ascending-surplus queue (SFS, hier): the thread's
	// φ-class heap.
	SlotSurplus
	// NumSlots is the number of handles an element must reserve.
	NumSlots
)

// Handle is the per-slot queue state an element carries: its node in a List
// and/or its position in a Heap or a Lane. The zero value means "in no queue".
// One Handle serves one List and one Heap or Lane simultaneously (distinct
// fields); a Heap and a Lane on one slot share the position, so an element is
// in at most one of them.
type Handle[T any] struct {
	node *Node[T]
	pos  int32 // heap index + 1 (> 0), −(lane buffer index + 1) (< 0); 0 = absent
}

// Node is a doubly-linked list node. Nodes are owned and recycled by the
// List; elements reference them through their Handle.
type Node[T any] struct {
	val        T
	prev, next *Node[T]
}

// Indexed is the constraint for intrusive queue elements: Handle returns the
// element's handle for the given slot. Implementations return a pointer into
// the element itself (e.g. &t.rq[s]); the queue mutates it in place.
type Indexed[T any] interface {
	RunqueueHandle(Slot) *Handle[T]
}

// NewList returns an empty list on the given handle slot, sorted by less
// (strict weak order).
func NewList[T Indexed[T]](slot Slot, less func(a, b T) bool) *List[T] {
	return &List[T]{slot: slot, less: less}
}

// Len returns the number of elements.
func (l *List[T]) Len() int { return l.n }

// Contains reports whether x is in the list.
func (l *List[T]) Contains(x T) bool {
	return x.RunqueueHandle(l.slot).node != nil
}

// newNode pops a recycled node or allocates one.
func (l *List[T]) newNode(x T) *Node[T] {
	n := l.free
	if n == nil {
		return &Node[T]{val: x}
	}
	l.free = n.next
	n.val = x
	n.next = nil
	return n
}

// Insert places x at its sorted position (after any equal elements, so
// insertion order breaks ties — matching the FIFO tie-break of a kernel run
// queue). It panics if x is already present; run queues never hold
// duplicates, so a duplicate insert is a lifecycle bug worth failing loudly
// on.
func (l *List[T]) Insert(x T) {
	h := x.RunqueueHandle(l.slot)
	if h.node != nil {
		panic("runqueue: duplicate insert")
	}
	n := l.newNode(x)
	h.node = n
	l.n++
	// Scan from both ends simultaneously: a woken thread carries a tag near
	// the virtual time (front of the queue), a freshly charged or heavy
	// thread a recent large tag (back), so min(distance from either end)
	// keeps both arrival patterns cheap on deep queues.
	if l.head == nil {
		l.insertAfter(n, nil)
		return
	}
	a, b := l.tail, l.head
	for {
		if !l.less(x, a.val) { // a ≤ x: insert right after a (FIFO ties)
			l.insertAfter(n, a)
			return
		}
		if a = a.prev; a == nil { // x precedes everything
			l.insertAfter(n, nil)
			return
		}
		if l.less(x, b.val) { // b > x: insert right before b
			l.insertAfter(n, b.prev)
			return
		}
		b = b.next
	}
}

// insertAfter links n immediately after cur (cur == nil means at the head).
func (l *List[T]) insertAfter(n, cur *Node[T]) {
	if cur == nil {
		n.next = l.head
		n.prev = nil
		if l.head != nil {
			l.head.prev = n
		}
		l.head = n
		if l.tail == nil {
			l.tail = n
		}
		return
	}
	n.prev = cur
	n.next = cur.next
	cur.next = n
	if n.next != nil {
		n.next.prev = n
	} else {
		l.tail = n
	}
}

// Remove unlinks x in O(1) and recycles its node. It reports whether x was
// present.
func (l *List[T]) Remove(x T) bool {
	h := x.RunqueueHandle(l.slot)
	n := h.node
	if n == nil {
		return false
	}
	h.node = nil
	l.n--
	l.unlink(n)
	var zero T
	n.val = zero
	n.next = l.free
	l.free = n
	return true
}

func (l *List[T]) unlink(n *Node[T]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Validate checks structural invariants: forward/backward consistency,
// handle agreement, and sorted order. Used by tests and the simulator's
// paranoia mode.
func (l *List[T]) Validate() error {
	count := 0
	var prev *Node[T]
	for n := l.head; n != nil; n = n.next {
		if n.prev != prev {
			return errors.New("runqueue: broken prev link")
		}
		if n.val.RunqueueHandle(l.slot).node != n {
			return errors.New("runqueue: handle out of sync")
		}
		if prev != nil && l.less(n.val, prev.val) {
			return fmt.Errorf("runqueue: order violated at %v", n.val)
		}
		prev = n
		count++
		if count > l.n {
			return errors.New("runqueue: cycle detected")
		}
	}
	if prev != l.tail {
		return errors.New("runqueue: tail out of sync")
	}
	if count != l.n {
		return fmt.Errorf("runqueue: length mismatch: walked %d, counted %d", count, l.n)
	}
	return nil
}
