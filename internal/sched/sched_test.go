package sched

import (
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestStateString(t *testing.T) {
	cases := map[State]string{
		New:      "new",
		Runnable: "runnable",
		Blocked:  "blocked",
		Exited:   "exited",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
	if got := State(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown state string %q", got)
	}
}

func TestThreadRunning(t *testing.T) {
	th := &Thread{CPU: NoCPU}
	if th.Running() {
		t.Fatal("NoCPU thread reported running")
	}
	th.CPU = 0
	if !th.Running() {
		t.Fatal("CPU 0 thread reported not running")
	}
}

// TestThreadHotFieldsFirst keeps what a pick, a charge, a heap sift and the
// φ-class queue touch in Thread's first two cache lines, and Thread inside the
// 256-byte size class it is allocated in.
func TestThreadHotFieldsFirst(t *testing.T) {
	const hotEnd, sizeClass = 128, 256
	var th Thread
	hot := []struct {
		name string
		end  uintptr
	}{
		{"ID", unsafe.Offsetof(th.ID) + unsafe.Sizeof(th.ID)},
		{"Weight", unsafe.Offsetof(th.Weight) + unsafe.Sizeof(th.Weight)},
		{"Phi", unsafe.Offsetof(th.Phi) + unsafe.Sizeof(th.Phi)},
		{"Start", unsafe.Offsetof(th.Start) + unsafe.Sizeof(th.Start)},
		{"Finish", unsafe.Offsetof(th.Finish) + unsafe.Sizeof(th.Finish)},
		{"CPU", unsafe.Offsetof(th.CPU) + unsafe.Sizeof(th.CPU)},
		{"LastCPU", unsafe.Offsetof(th.LastCPU) + unsafe.Sizeof(th.LastCPU)},
		{"Service", unsafe.Offsetof(th.Service) + unsafe.Sizeof(th.Service)},
		{"rq", unsafe.Offsetof(th.rq) + unsafe.Sizeof(th.rq)},
		{"PhiClass", unsafe.Offsetof(th.PhiClass) + unsafe.Sizeof(th.PhiClass)},
		{"State", unsafe.Offsetof(th.State) + unsafe.Sizeof(th.State)},
	}
	for _, f := range hot {
		if f.end > hotEnd {
			t.Errorf("Thread.%s ends at byte %d, past the hot %d: with the hot fields on all four of "+
				"Thread's cache lines an sfsbench flood task cost 2–6 %% more CPU (2 vCPUs)", f.name, f.end, hotEnd)
		}
	}
	if size := unsafe.Sizeof(th); size > sizeClass {
		t.Errorf("Thread is %d bytes, past the %d-byte size class it is allocated in", size, sizeClass)
	}
}

// TestThreadSizeClass keeps Thread in a size class that is a whole number of
// cache lines, so every thread's hot first 128 bytes (TestThreadHotFieldsFirst)
// start on a line. At 240 bytes, in the 240-byte class, 3 threads in 4 spread
// them over three lines: sfsbench's flood read ops_per_s 7–20 % below the
// 256-byte Thread's (medians of two sets of 6 and 10 alternating pairs,
// 2 vCPUs; the padded build won 13 of the 16).
func TestThreadSizeClass(t *testing.T) {
	const line = 64
	// Go's size classes up to 512 bytes; objects this small carry no header.
	classes := []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192,
		208, 224, 240, 256, 288, 320, 352, 384, 416, 448, 480, 512}
	size := unsafe.Sizeof(Thread{})
	i, _ := slices.BinarySearch(classes, size)
	if i == len(classes) {
		t.Fatalf("Thread is %d bytes, past the small size classes this guard knows", size)
	}
	if class := classes[i]; class%line != 0 {
		t.Errorf("Thread is %d bytes, in the %d-byte size class, whose objects do not start on a cache line", size, class)
	}
}

func TestThreadString(t *testing.T) {
	named := &Thread{ID: 3, Name: "web", Weight: 2}
	if got := named.String(); !strings.Contains(got, "web") || !strings.Contains(got, "w=2") {
		t.Errorf("named thread string %q", got)
	}
	anon := &Thread{ID: 7, Weight: 1}
	if got := anon.String(); !strings.Contains(got, "7") {
		t.Errorf("anonymous thread string %q", got)
	}
}

func TestValidWeight(t *testing.T) {
	good := []float64{1, 0.001, 10000, 1e12}
	for _, w := range good {
		if !ValidWeight(w) {
			t.Errorf("ValidWeight(%g) = false", w)
		}
	}
	bad := []float64{0, -1, math.NaN(), math.Inf(1), 1e13}
	for _, w := range bad {
		if ValidWeight(w) {
			t.Errorf("ValidWeight(%g) = true", w)
		}
	}
}
