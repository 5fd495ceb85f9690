// Package simtime provides the time base used throughout the simulator.
//
// Simulated time is a 64-bit count of microseconds since the start of a
// simulation run. A microsecond granularity is fine enough to resolve the
// paper's context-switch costs (about 1–4 µs on the original testbed) while
// leaving ~292,000 years of headroom before overflow, so simulation code
// never needs to reason about wraparound of the clock itself. (Virtual-time
// tags are float64 seconds, not simtime values.)
package simtime

import (
	"fmt"
	"time"
)

// Time is an absolute instant in simulated time, in microseconds since the
// start of the run.
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// Infinity is a duration longer than any simulation horizon. It is used for
// CPU bursts of compute-bound threads that never block.
const Infinity Duration = 1 << 62

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the instant as fractional seconds since the start of the
// run.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as fractional seconds, e.g. "12.345s".
func (t Time) String() string { return fmt.Sprintf("%.6gs", t.Seconds()) }

// Seconds returns the duration as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as fractional milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds returns the duration as an integer number of microseconds.
func (d Duration) Microseconds() int64 { return int64(d) }

// Std converts the simulated duration to a time.Duration for interoperation
// with code that reports wall-clock-style quantities.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// String formats the duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Infinity:
		return "inf"
	case d >= Second || d <= -Second:
		return fmt.Sprintf("%.6gs", d.Seconds())
	case d >= Millisecond || d <= -Millisecond:
		return fmt.Sprintf("%.6gms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// FromSeconds converts fractional seconds to a Duration, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Duration {
	if s < 0 {
		return Duration(s*float64(Second) - 0.5)
	}
	return Duration(s*float64(Second) + 0.5)
}

// Min returns the smaller of two durations.
func Min(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}
