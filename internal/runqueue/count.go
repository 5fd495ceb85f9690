package runqueue

// Counts is the queue work the sfscount build tag counts, for tests that
// state a cost row of DESIGN.md §3 as a bound on a count rather than a time.
// In the default build a Counter has no field and Inc no body, so every
// increment compiles away (TestCountersCompileAway).
var Counts struct {
	SiftLevels  Counter // levels an element moved by a heap sift, up or down
	Compares    Counter // order comparisons by a heap sift or Lane.Put
	LaneAppends Counter // elements put at a lane's back
	LaneToHeap  Counter // Lane.Put moves from the lane to the heap
	HeapToLane  Counter // Lane.Put moves from the heap to the lane
}
