package core

import (
	"fmt"
	"math"

	"sfsched/internal/sched"
)

// Views of the class-key regime for the external golden tests (which sit
// outside the package because hier imports core).

// WithinFreeScan reports whether there are no more classes than any pick may
// visit — the regime in which byClass is an unordered list that a pick scans.
func (s *SFS) WithinFreeScan() bool { return s.byClass.Len() <= eagerClasses }

// LeastHead returns the head of byHead's least class — the holder of v — or
// nil when nothing is runnable.
func (s *SFS) LeastHead() *sched.Thread {
	if c, ok := s.byHead.Min(); ok {
		return c.head
	}
	return nil
}

// LaneFloor is the class size at which a class puts a lane in front of its heap.
const LaneFloor = laneFloor

// CheckKeyJudgement verifies what lets a pick turn a position down
// without touching its thread: at every live position of every class lane and
// heap, the surplus computed from the cached key is the thread's fresh surplus
// to the bit.
func (s *SFS) CheckKeyJudgement() error {
	check := func(c *class, queue string, j int, t *sched.Thread, key float64) error {
		got, want := keySurplus(c, key, s.v), s.FreshSurplus(t)
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("%v at %s position %d of class φ=%g: surplus %g from the cached key, %g fresh", t, queue, j, c.phi, got, want)
		}
		return nil
	}
	for i := 0; i < s.byClass.Len(); i++ {
		c := s.byClass.At(i)
		for j := 0; c.lane() != nil && j < c.lane().Span(); j++ {
			if t := c.lane().At(j); t != nil {
				if err := check(c, "lane", j, t, c.lane().KeyAt(j)); err != nil {
					return err
				}
			}
		}
		for j := 0; j < c.threads.Len(); j++ {
			if err := check(c, "heap", j, c.threads.At(j), c.threads.KeyAt(j)); err != nil {
				return err
			}
		}
	}
	return nil
}
