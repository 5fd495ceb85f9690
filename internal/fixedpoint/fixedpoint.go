// Package fixedpoint implements the scaled integer arithmetic the paper's
// kernel implementation uses for start tags, finish tags and surplus values.
//
// The Linux 2.2 kernel has no floating point in kernel context, so the
// original implementation (paper §3.2) scales every fractional quantity by a
// constant factor 10^n, capturing n digits past the decimal point in an
// integer variable; the paper found n=4 adequate. A large scaling factor
// hastens wraparound of the tags of long-running threads, which the paper
// handles by periodically rebasing all tags against the minimum start tag and
// resetting virtual time. This package reproduces both mechanisms so that
// the fixed-point SFS variant in internal/core behaves like the kernel code,
// and so tests can quantify the drift between the float64 and fixed-point
// schedulers.
package fixedpoint

import "fmt"

// DefaultDigits is the number of decimal digits kept past the point; the
// paper found 10^4 adequate for most purposes.
const DefaultDigits = 4

// Value is a fixed-point number: the real value times the scale factor.
type Value int64

// Scale describes a fixed-point format with factor 10^digits.
type Scale struct {
	factor int64
}

// NewScale returns a scale with factor 10^digits. digits must be in [0, 9]:
// 10^9 still leaves 9 decimal digits of integer headroom in an int64 before
// tag rebasing becomes urgent, and larger factors make overflow too frequent
// to be useful (exactly the trade-off §3.2 describes).
func NewScale(digits int) (Scale, error) {
	if digits < 0 || digits > 9 {
		return Scale{}, fmt.Errorf("fixedpoint: digits %d out of range [0,9]", digits)
	}
	f := int64(1)
	for i := 0; i < digits; i++ {
		f *= 10
	}
	return Scale{factor: f}, nil
}

// MustScale is NewScale for known-good constants.
func MustScale(digits int) Scale {
	s, err := NewScale(digits)
	if err != nil {
		panic(err)
	}
	return s
}

// Factor returns the multiplicative scale factor 10^digits.
func (s Scale) Factor() int64 { return s.factor }

// FromFloat converts a float to fixed point, rounding to nearest.
func (s Scale) FromFloat(x float64) Value {
	if x >= 0 {
		return Value(x*float64(s.factor) + 0.5)
	}
	return Value(x*float64(s.factor) - 0.5)
}

// FromInt converts an integer count (e.g. a duration in µs) to fixed point.
func (s Scale) FromInt(x int64) Value { return Value(x * s.factor) }

// Float converts a fixed-point value back to float64 (for reporting only;
// the scheduler itself never leaves integer arithmetic).
func (s Scale) Float(v Value) float64 { return float64(v) / float64(s.factor) }

// DivValue computes the scaled quotient a/b of two same-scale values,
// yielding a scaled result: (a·factor)/b.
func (s Scale) DivValue(a, b Value) Value {
	if b == 0 {
		panic("fixedpoint: division by zero value")
	}
	num := int64(a) * s.factor
	d := int64(b)
	if (num >= 0) == (d > 0) {
		return Value((num + d/2) / d)
	}
	return Value((num - d/2) / d)
}

// MulValue multiplies two scaled values, keeping the scale: (a·b)/factor.
func (s Scale) MulValue(a, b Value) Value {
	return Value(int64(a) * int64(b) / s.factor)
}

// WrapThreshold is the tag magnitude past which Rebase should be invoked.
// It is far below overflow so that intermediate products in MulValue and
// DivValue cannot overflow either.
const WrapThreshold Value = 1 << 53

// NeedsRebase reports whether any tag has grown beyond the safe threshold.
func NeedsRebase(tags ...Value) bool {
	for _, t := range tags {
		if t > WrapThreshold || t < -WrapThreshold {
			return true
		}
	}
	return false
}

// Rebase subtracts base from every tag in place. The paper (§3.2) deals with
// wraparound "by adjusting all start and finish tags with respect to the
// minimum start tag in the system and resetting the virtual time"; callers
// pass the minimum start tag as base. Relative order and all differences —
// the only things the scheduling decision depends on — are preserved.
func Rebase(base Value, tags ...*Value) {
	for _, t := range tags {
		*t -= base
	}
}
