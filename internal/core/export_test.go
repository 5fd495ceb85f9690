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

// CheckKeyJudgement verifies what lets a pick turn a position down
// without touching its thread: at every position of every class heap, the
// surplus computed from the cached key is the thread's fresh surplus to the bit.
func (s *SFS) CheckKeyJudgement() error {
	for i := 0; i < s.byClass.Len(); i++ {
		c := s.byClass.At(i)
		for j := 0; j < c.threads.Len(); j++ {
			t := c.threads.At(j)
			got, want := keySurplus(c, c.threads.KeyAt(j), s.v), s.FreshSurplus(t)
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("%v at position %d of class φ=%g: surplus %g from the cached key, %g fresh", t, j, c.phi, got, want)
			}
		}
	}
	return nil
}
