package rt_test

import (
	"sync"
	"testing"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// TestFakeClockConcurrent runs Now, Advance and Set from concurrent
// goroutines (CI repeats it under -race): no reader ever sees the clock go
// back, no Advance is lost, and a backwards Set or Advance still panics with
// the message it always had, leaving the clock where it was.
func TestFakeClockConcurrent(t *testing.T) {
	const advancers, steps = 4, 5000
	// Each Set jumps further than every Advance together, so the one setter's
	// target is never behind the clock it lands on.
	const jump = simtime.Duration(10 * advancers * steps)
	for _, setter := range []bool{false, true} {
		c := rt.NewFakeClock()
		stop := make(chan struct{})
		var readers, writers sync.WaitGroup
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for last := c.Now(); ; {
					select {
					case <-stop:
						return
					default:
					}
					now := c.Now()
					if now < last {
						t.Errorf("Now went back from %v to %v", last, now)
						return
					}
					last = now
				}
			}()
		}
		for g := 0; g < advancers; g++ {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i := 0; i < steps; i++ {
					c.Advance(simtime.Microsecond)
				}
			}()
		}
		var lastSet simtime.Time
		if setter {
			writers.Add(1)
			go func() {
				defer writers.Done()
				for i := 0; i < 200; i++ {
					lastSet = c.Now().Add(jump)
					c.Set(lastSet)
				}
			}()
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		got, advanced := c.Now(), simtime.Duration(advancers*steps)
		switch {
		case !setter && got != simtime.Time(advanced):
			t.Errorf("%d concurrent Advances of 1µs left the clock at %v, want %v", advancers*steps, got, simtime.Time(advanced))
		case setter && (got < lastSet || got > lastSet.Add(advanced)):
			t.Errorf("clock at %v after a last Set to %v and %v of Advances", got, lastSet, advanced)
		}
	}

	c := rt.NewFakeClock()
	c.Set(2 * simtime.Time(simtime.Second))
	for _, tc := range []struct {
		op   string
		move func()
		want string
	}{
		{"Set", func() { c.Set(simtime.Time(1500 * simtime.Millisecond)) }, "rt: fake clock moved backwards (2s -> 1.5s)"},
		{"Advance", func() { c.Advance(-simtime.Millisecond) }, "rt: fake clock moved backwards (advance -1ms)"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("backwards %s panicked with %v, want %q", tc.op, got, tc.want)
				}
			}()
			tc.move()
		}()
		if now := c.Now(); now != 2*simtime.Time(simtime.Second) {
			t.Errorf("backwards %s moved the clock to %v", tc.op, now)
		}
	}
}
