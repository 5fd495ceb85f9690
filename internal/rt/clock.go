// Clock abstraction for the runtime: dispatch decisions charge elapsed time
// read from a Clock, so the same scheduling pipeline runs against the real
// monotonic clock in production and against a hand-advanced fake clock in the
// deterministic differential tests (golden_test.go) that pin the runtime's
// decisions to the simulated machine's.

package rt

import (
	"fmt"
	"sync/atomic"
	"time"

	"sfsched/internal/simtime"
)

// Clock supplies the runtime's notion of current time, at the simulator's
// microsecond resolution. Implementations must be safe for concurrent use and
// monotonic: Now never decreases.
type Clock interface {
	Now() simtime.Time
}

// wallClock reads the process monotonic clock, reported as microseconds since
// the runtime started. time.Since uses Go's monotonic reading, so wall-clock
// steps (NTP, suspend) do not move it backwards.
type wallClock struct {
	base time.Time
}

// NewWallClock returns a monotonic wall clock starting at 0.
func NewWallClock() Clock {
	return &wallClock{base: time.Now()}
}

func (c *wallClock) Now() simtime.Time {
	return simtime.Time(time.Since(c.base) / time.Microsecond)
}

// FakeClock is a manually advanced Clock for deterministic tests: the test
// harness plays the role of time, setting the instant each modelled quantum
// ends before completing it. It is one atomic word, so a Now on the dispatch
// path costs a load, not a lock.
type FakeClock struct {
	now atomic.Int64 // simtime.Time
}

// NewFakeClock returns a fake clock at time 0.
func NewFakeClock() *FakeClock { return &FakeClock{} }

// Now implements Clock.
func (c *FakeClock) Now() simtime.Time { return simtime.Time(c.now.Load()) }

// Set moves the clock to t. It panics if t is earlier than the current time;
// Clock implementations must be monotonic.
func (c *FakeClock) Set(t simtime.Time) {
	for {
		cur := c.now.Load()
		if int64(t) < cur {
			panic(fmt.Sprintf("rt: fake clock moved backwards (%v -> %v)", simtime.Time(cur), t))
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// Advance moves the clock forward by d (d must be non-negative).
func (c *FakeClock) Advance(d simtime.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("rt: fake clock moved backwards (advance %v)", d))
	}
	c.now.Add(int64(d))
}
