package runqueue

import (
	"fmt"
	"math"
	"slices"
)

// Lane is a sorted FIFO in front of a Heap: a ring of heap positions in the
// heap's order that takes an element only at its back, and only when it does
// not precede the back — threads of one weight taking full quanta in turn
// move from front to back at O(1), the rest stay in the heap. Put, Remove,
// Len, Min and Each cover both. The two share the element's Handle (a lane
// position is stored negative, so the heap refuses the lane's members) and
// one backing array, the heap at its start and the ring in its tail, whose
// layout only split, the heap's growth hook, knows. A removal between the
// ends leaves a tombstone that keeps its key, so a scan judges a position by
// KeyAt before At touches the element; the ring is compacted once tombstones
// outnumber its live positions or fill a quarter of a full ring.
type Lane[T Indexed[T]] struct {
	h     *Heap[T]
	all   []entry[T] // the array both use: the heap's cap(h.vals) positions, then buf
	buf   []entry[T] // the ring; a tombstone has hd == nil
	front int        // buffer index of the front position
	span  int        // positions from the front to the back, tombstones included
	dead  int        // tombstones among them
}

// NewLane puts an empty lane in front of h, which may hold elements but no
// lane, and returns it; h.Lane returns it from then on.
func NewLane[T Indexed[T]](h *Heap[T]) *Lane[T] {
	if h.lane != nil {
		panic("runqueue: a heap takes one lane")
	}
	h.lane = &Lane[T]{h: h, all: h.vals[:cap(h.vals)]}
	return h.lane
}

// Lane returns the lane in front of h, or nil.
func (h *Heap[T]) Lane() *Lane[T] { return h.lane }

// Len returns the number of elements in the lane and its heap.
func (l *Lane[T]) Len() int { return l.span - l.dead + len(l.h.vals) }

// Span returns the number of lane positions KeyAt and At read, tombstones
// included.
func (l *Lane[T]) Span() int { return l.span }

// KeyAt returns the cached key of lane position i, counted from the front.
func (l *Lane[T]) KeyAt(i int) float64 { return l.buf[l.index(i)].key }

// At returns the element at lane position i, counted from the front, or the
// zero T at a tombstone.
func (l *Lane[T]) At(i int) T { return l.buf[l.index(i)].x }

// Min returns the least element of the lane and its heap, and its key. One of
// them must hold an element.
func (l *Lane[T]) Min() (T, float64) {
	h := l.h
	if l.span == 0 || len(h.vals) > 0 && h.before(h.vals[0], l.buf[l.front]) {
		return h.vals[0].x, h.vals[0].key
	}
	return l.buf[l.front].x, l.buf[l.front].key
}

// Put queues x at its current key, or queues it again after the key changed:
// at the lane's back when it does not precede it, else in the heap — a lane
// element that now precedes the back moves to the heap, a heap element that
// no longer does to the lane.
func (l *Lane[T]) Put(x T) {
	hd := x.RunqueueHandle(l.h.slot)
	e, in := entry[T]{l.h.key(x), x, hd}, hd.pos
	if in < 0 {
		l.remove(hd)
	}
	Counts.Compares.Inc()
	switch {
	case l.span == 0 || !l.h.before(e, l.buf[l.index(l.span-1)]):
		if in > 0 {
			l.h.remove(hd)
			Counts.HeapToLane.Inc()
		}
		l.append(e)
	case in > 0: // Heap.Fix, with the handle and the key already read
		h, i := l.h, int(in)-1
		h.vals[i].key = e.key
		if len(h.vals) > int(h.flat) && !h.down(i) {
			h.up(i)
		}
	default:
		l.h.Push(x)
		if in < 0 {
			Counts.LaneToHeap.Inc()
		}
	}
}

// Remove deletes x from the lane or its heap, reporting whether it was in
// either.
func (l *Lane[T]) Remove(x T) bool {
	hd := x.RunqueueHandle(l.h.slot)
	if hd.pos >= 0 {
		return l.h.remove(hd)
	}
	l.remove(hd)
	return true
}

// Each calls fn on every element, the lane's front to back and then the
// heap's, until fn returns false.
func (l *Lane[T]) Each(fn func(T) bool) {
	for i := 0; i < l.span; i++ {
		if e := l.buf[l.index(i)]; e.hd != nil && !fn(e.x) {
			return
		}
	}
	l.h.Each(fn)
}

// append puts e, which does not precede the back, there.
func (l *Lane[T]) append(e entry[T]) {
	if n := len(l.buf); l.span == n {
		if 4*l.dead >= n && n > 0 {
			l.compact()
		} else {
			l.split()
		}
	}
	i := l.index(l.span)
	l.buf[i] = e
	e.hd.pos = -int32(i + 1)
	l.span++
	Counts.LaneAppends.Inc()
}

// remove tombstones the lane position hd holds and trims the ends.
func (l *Lane[T]) remove(hd *Handle[T]) {
	i := -hd.pos - 1
	hd.pos = 0
	l.buf[i] = entry[T]{key: l.buf[i].key}
	l.dead++
	for l.span > 0 && l.buf[l.front].hd == nil {
		if l.front++; l.front == len(l.buf) {
			l.front = 0
		}
		l.span--
		l.dead--
	}
	for l.span > 0 && l.buf[l.index(l.span-1)].hd == nil {
		l.span--
		l.dead--
	}
	if 2*l.dead > l.span {
		l.compact()
	}
}

// index returns the buffer index of lane position i.
func (l *Lane[T]) index(i int) int {
	if i += l.front; i >= len(l.buf) {
		i -= len(l.buf)
	}
	return i
}

// compact drops the tombstones, moving each live position towards the front
// onto one already read.
func (l *Lane[T]) compact() {
	w := 0
	for i := 0; i < l.span; i++ {
		if e := l.buf[l.index(i)]; e.hd != nil {
			j := l.index(w)
			l.buf[j] = e
			e.hd.pos = -int32(j + 1)
			w++
		}
	}
	for i := w; i < l.span; i++ {
		l.buf[l.index(i)] = entry[T]{}
	}
	l.span, l.dead = w, 0
}

// split gives the heap and the ring half the backing array's free room each,
// in an array grown as append grows one when less than a sixteenth of it is
// free. The ring's positions, compacted and rotated to the start of its
// buffer, move to the start of its new part.
func (l *Lane[T]) split() {
	l.compact()
	slices.Reverse(l.buf[:l.front])
	slices.Reverse(l.buf[l.front:])
	slices.Reverse(l.buf)
	l.front = 0
	h, all, n := l.h, l.all, l.span+len(l.h.vals)
	for len(all)-n < max(2, n/16) {
		all = append(all[:len(all):len(all)], entry[T]{})
		all = all[:cap(all)]
	}
	hb := len(h.vals) + (len(all)-n)/2
	copy(all[hb:], l.buf[:l.span])
	clear(all[len(h.vals):hb])
	clear(all[hb+l.span:])
	h.vals, l.all, l.buf = all[:len(h.vals):hb], all, all[hb:]
	for i, e := range l.buf[:l.span] {
		e.hd.pos = -int32(i + 1)
	}
}

// Validate checks the lane's order (every key, tombstones' included, and less
// between equal keys of live positions), handle agreement and cached keys as
// Heap.Validate does, and its tombstones: counted right, none at either end
// and no more than its live positions. Heap.Validate checks the heap.
func (l *Lane[T]) Validate() error {
	if l.span > len(l.buf) || l.front >= max(1, len(l.buf)) {
		return fmt.Errorf("runqueue: lane spans %d from %d of a %d-position ring", l.span, l.front, len(l.buf))
	}
	dead, lastKey, last := 0, math.Inf(-1), -1 // last: the last live position
	for i := 0; i < l.span; i++ {
		j := l.index(i)
		e := l.buf[j]
		switch {
		case e.key < lastKey:
			return fmt.Errorf("runqueue: lane order violated at %d (key %g after %g)", i, e.key, lastKey)
		case e.hd == nil && (i == 0 || i == l.span-1):
			return fmt.Errorf("runqueue: lane tombstone at an end (position %d of %d)", i, l.span)
		case e.hd == nil:
			dead++
		case last >= 0 && e.key == l.buf[last].key && l.h.less(e.x, l.buf[last].x):
			return fmt.Errorf("runqueue: lane order violated at %d (%v before %v)", i, e.x, l.buf[last].x)
		default:
			if err := l.h.check(e, -int32(j+1), "lane", i); err != nil {
				return err
			}
			last = j
		}
		lastKey = e.key
	}
	if dead != l.dead || 2*dead > l.span {
		return fmt.Errorf("runqueue: lane holds %d tombstones in %d positions, counts %d (compacted past half)", dead, l.span, l.dead)
	}
	return nil
}
