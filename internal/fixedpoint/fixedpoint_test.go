package fixedpoint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewScaleBounds(t *testing.T) {
	for _, d := range []int{0, 1, 4, 9} {
		s, err := NewScale(d)
		if err != nil {
			t.Fatalf("NewScale(%d): %v", d, err)
		}
		want := int64(math.Pow(10, float64(d)))
		if s.Factor() != want {
			t.Errorf("Factor for %d digits = %d, want %d", d, s.Factor(), want)
		}
	}
	for _, d := range []int{-1, 10, 100} {
		if _, err := NewScale(d); err == nil {
			t.Errorf("NewScale(%d) should fail", d)
		}
	}
}

func TestMustScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustScale(-1) did not panic")
		}
	}()
	MustScale(-1)
}

func TestFromFloatRounding(t *testing.T) {
	s := MustScale(4)
	cases := []struct {
		in   float64
		want Value
	}{
		{1.0, 10000},
		{0.12345, 1235}, // rounds to nearest
		{0.12344, 1234},
		{-1.5, -15000},
		{0, 0},
	}
	for _, c := range cases {
		if got := s.FromFloat(c.in); got != c.want {
			t.Errorf("FromFloat(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	s := MustScale(4)
	f := func(x int32) bool {
		v := Value(x)
		return s.FromFloat(s.Float(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivValue(t *testing.T) {
	s := MustScale(4)
	a := s.FromFloat(1.0)
	b := s.FromFloat(4.0)
	if got := s.DivValue(a, b); got != s.FromFloat(0.25) {
		t.Fatalf("DivValue = %d, want %d", got, s.FromFloat(0.25))
	}
	// Negative numerator rounds symmetrically.
	if got := s.DivValue(s.FromFloat(-1), s.FromFloat(4)); got != s.FromFloat(-0.25) {
		t.Fatalf("DivValue negative = %d", got)
	}
}

func TestDivValuePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DivValue by 0 did not panic")
		}
	}()
	s := MustScale(4)
	s.DivValue(1, 0)
}

func TestMulValue(t *testing.T) {
	s := MustScale(4)
	a := s.FromFloat(1.5)
	b := s.FromFloat(2.0)
	if got := s.MulValue(a, b); got != s.FromFloat(3.0) {
		t.Fatalf("MulValue = %d, want %d", got, s.FromFloat(3.0))
	}
}

func TestAccuracyAgainstFloat(t *testing.T) {
	// With n=4 digits the paper found fixed-point adequate: tag updates
	// must track float math within 1e-4 per operation. The update is the
	// one core.Charge computes, F = S + q/φ with q and φ both scaled.
	s := MustScale(4)
	q := int64(200000) // 200 ms in µs
	for _, w := range []int64{1, 2, 3, 7, 10, 100, 10000} {
		fixed := s.Float(s.DivValue(s.FromInt(q), s.FromInt(w)))
		exact := float64(q) / float64(w)
		if math.Abs(fixed-exact) > 0.5/1e4*10 { // half an ulp at the scale, with slack
			t.Errorf("w=%d: fixed %g vs exact %g", w, fixed, exact)
		}
	}
}

func TestNeedsRebase(t *testing.T) {
	if NeedsRebase(0, 100, -100) {
		t.Fatal("small tags should not need rebase")
	}
	if !NeedsRebase(WrapThreshold + 1) {
		t.Fatal("large tag should need rebase")
	}
	if !NeedsRebase(-WrapThreshold - 1) {
		t.Fatal("large negative tag should need rebase")
	}
}

func TestRebasePreservesDifferences(t *testing.T) {
	a, b, c := Value(1000), Value(2500), Value(999)
	d1, d2 := b-a, c-a
	Rebase(999, &a, &b, &c)
	if a != 1 || b-a != d1 || c-a != d2 {
		t.Fatalf("Rebase broke differences: a=%d b=%d c=%d", a, b, c)
	}
}

func TestRebaseProperty(t *testing.T) {
	f := func(base, x, y int32) bool {
		a, b := Value(x), Value(y)
		diff := b - a
		Rebase(Value(base), &a, &b)
		return b-a == diff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
