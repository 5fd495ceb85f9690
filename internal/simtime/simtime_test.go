package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(3 * Second)
	if t1 != Time(3_000_000) {
		t.Fatalf("Add: got %d, want 3000000", t1)
	}
	if d := t1.Sub(t0); d != 3*Second {
		t.Fatalf("Sub: got %v, want 3s", d)
	}
	if !t0.Before(t1) || t1.Before(t0) {
		t.Fatal("Before is wrong")
	}
	if !t1.After(t0) || t0.After(t1) {
		t.Fatal("After is wrong")
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(base int64, delta int32) bool {
		t0 := Time(base % (1 << 50))
		d := Duration(delta)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds: got %g, want 1.5", got)
	}
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Fatalf("Milliseconds: got %g, want 1.5", got)
	}
	if got := (3 * Millisecond).Microseconds(); got != 3000 {
		t.Fatalf("Microseconds: got %d, want 3000", got)
	}
	if got := Time(2_500_000).Seconds(); got != 2.5 {
		t.Fatalf("Time.Seconds: got %g, want 2.5", got)
	}
}

func TestFromSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want Duration
	}{
		{0, 0},
		{1, Second},
		{0.001, Millisecond},
		{1e-6, Microsecond},
		{-1.5, -1500 * Millisecond},
		{0.2, 200 * Millisecond},
	}
	for _, c := range cases {
		if got := FromSeconds(c.in); got != c.want {
			t.Errorf("FromSeconds(%g) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(us int32) bool {
		d := Duration(us)
		return FromSeconds(d.Seconds()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStd(t *testing.T) {
	if got := (3 * Millisecond).Std(); got != 3*time.Millisecond {
		t.Fatalf("Std: got %v", got)
	}
}

func TestMin(t *testing.T) {
	if Min(Second, Millisecond) != Millisecond {
		t.Fatal("Min failed")
	}
	if Min(Millisecond, Millisecond) != Millisecond {
		t.Fatal("Min equal failed")
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{Infinity, "inf"},
		{2 * Second, "2s"},
		{200 * Millisecond, "200ms"},
		{5 * Microsecond, "5µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if got := Time(1500 * int64(Millisecond)).String(); got != "1.5s" {
		t.Errorf("Time.String() = %q", got)
	}
}
