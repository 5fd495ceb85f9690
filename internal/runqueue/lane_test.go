package runqueue

import (
	"slices"
	"testing"

	"sfsched/internal/xrand"
)

// TestLaneRandomOps drives a lane and the heap behind it through random
// arrivals at, past and below the back, charges (a key raised, then Put) of
// lane elements near the front — most past the back, so the ring wraps, some
// below it, to the heap — and of heap elements past the back, to the lane,
// and removals anywhere, one or a burst (tombstones, then compactions), against a slice of
// the lane in append order and a set of the heap: after every step both
// validate, the slice is sorted, Each yields it and then the set, each
// element sits where the oracle put it, Min is the least of both and Len
// their sum. The pushes below the back fill the heap's part of the shared
// array, so it splits and grows.
func TestLaneRandomOps(t *testing.T) {
	r := xrand.New(57)
	h := NewKeyedHeap(SlotPrimary, coarseKey, byKey)
	l := NewLane(h)
	if h.Lane() != l {
		t.Fatal("Heap.Lane does not return the lane NewLane put in front of it")
	}
	var lane, heap, got []*item
	id := 0
	back := func() *item { return lane[len(lane)-1] }
	// place records where it must be after a Put: at the lane's
	// back unless it precedes it.
	place := func(it *item) {
		if len(lane) == 0 || !byKey(it, back()) {
			lane = append(lane, it)
		} else {
			heap = append(heap, it)
		}
	}
	drop := func(s []*item, it *item) []*item {
		return slices.DeleteFunc(s, func(x *item) bool { return x == it })
	}
	var grows, wraps, splits, compactions, moves int
	for step := 0; step < 30000; step++ {
		arr, hcap, dead := len(l.all), cap(h.vals), l.dead
		switch op := r.Intn(20); {
		case op < 8 || len(lane) == 0: // an arrival near the back, either side
			id++
			it := &item{id: id, key: r.Float64() * 4}
			if len(lane) > 0 {
				it.key += back().key - 2
			}
			place(it)
			l.Put(it)
		case op < 14: // a charge near the front: past the back, or short of it
			it := lane[r.Intn(min(3, len(lane)))]
			lane = drop(lane, it)
			if len(lane) > 0 {
				it.key = back().key + r.Float64() - 0.2
			}
			place(it)
			l.Put(it)
		case op < 16 && len(heap) > 0: // a straggler charged past the back
			it := heap[r.Intn(len(heap))]
			heap = drop(heap, it)
			it.key = back().key + r.Float64()
			place(it)
			l.Put(it)
			moves++
		case op < 19: // a removal anywhere, or of most of the middle at once
			burst := 1
			if op == 18 {
				burst = len(lane) / 2
			}
			for ; burst > 0 && len(lane) > 0; burst-- {
				i := r.Intn(len(lane))
				middle := i > 0 && i < len(lane)-1
				if !l.Remove(lane[i]) || l.Remove(lane[i]) || h.Remove(lane[i]) {
					t.Fatalf("step %d: Remove of a lane element did not report it once", step)
				}
				lane = slices.Delete(lane, i, i+1)
				if middle && dead > 0 && l.dead == 0 {
					compactions++
				}
				dead = l.dead
			}
		case len(heap) > 0:
			i := r.Intn(len(heap))
			if !l.Remove(heap[i]) {
				t.Fatalf("step %d: Remove of a heap element did not report it", step)
			}
			heap = slices.Delete(heap, i, i+1)
		}
		switch {
		case len(l.all) > arr:
			grows++
		case cap(h.vals) != hcap:
			splits++
		}
		if l.span > 0 && l.index(l.span-1) < l.front {
			wraps++
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := h.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !slices.IsSortedFunc(lane, func(a, b *item) int {
			if byKey(a, b) {
				return -1
			}
			return 1
		}) {
			t.Fatalf("step %d: the appends left the oracle unsorted", step)
		}
		got = got[:0]
		l.Each(func(it *item) bool { got = append(got, it); return true })
		if !slices.Equal(got[:min(len(got), len(lane))], lane) || l.Len() != len(lane)+len(heap) || h.Len() != len(heap) {
			t.Fatalf("step %d: lane holds %v, want %v (heap %d, want %d; Len %d)", step, keysOf(got), keysOf(lane), h.Len(), len(heap), l.Len())
		}
		for _, it := range heap {
			if !h.Contains(it) {
				t.Fatalf("step %d: %v is not in the heap", step, it.key)
			}
		}
		all := append(slices.Clone(lane), heap...)
		if len(all) > 0 {
			least := slices.MinFunc(all, func(a, b *item) int {
				if byKey(a, b) {
					return -1
				}
				return 1
			})
			if m, k := l.Min(); m != least || k != coarseKey(m) {
				t.Fatalf("step %d: Min is %v, want %v", step, m.key, least.key)
			}
		}
	}
	t.Logf("%d growths, %d wrapped steps, %d splits, %d compactions, %d moves to the lane", grows, wraps, splits, compactions, moves)
	if grows < 5 || wraps < 100 || splits < 20 || compactions < 5 || moves < 100 {
		t.Fatalf("%d growths, %d wrapped steps, %d splits, %d compactions, %d moves to the lane: the walk no longer tests them all",
			grows, wraps, splits, compactions, moves)
	}
}

// TestLaneAndHeapShareASlot: a heap and its lane share the elements' position
// handle, so the heap neither takes, removes, fixes nor reports a member of
// the lane.
func TestLaneAndHeapShareASlot(t *testing.T) {
	h := NewKeyedHeap(SlotPrimary, coarseKey, byKey)
	l := NewLane(h)
	inLane, inHeap := &item{id: 1, key: 5}, &item{id: 2, key: 1}
	l.Put(inLane)
	l.Put(inHeap) // below the back: the heap
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"Heap.Contains of the lane's member", h.Contains(inLane)},
		{"Heap.Remove of the lane's member", h.Remove(inLane)},
		{"Heap.Fix of the lane's member", h.Fix(inLane)},
	} {
		if c.ok {
			t.Errorf("%s reported it", c.name)
		}
	}
	if !h.Contains(inHeap) || h.Len() != 1 || l.Len() != 2 || l.Span() != 1 || l.At(0) != inLane {
		t.Fatalf("heap %d, lane %d positions after the refusals", h.Len(), l.Span())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Heap.Push of the lane's member did not panic")
			}
		}()
		h.Push(inLane)
	}()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}
