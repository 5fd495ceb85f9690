package main

import (
	"strings"
	"testing"

	"sfsched/internal/metrics"
)

func TestWriteSeriesCSV(t *testing.T) {
	s1 := &metrics.Series{Name: "T1", X: []float64{0, 1}, Y: []float64{10, 20}}
	s2 := &metrics.Series{Name: "T2", X: []float64{0, 1}, Y: []float64{5}}
	var b strings.Builder
	if err := writeSeriesCSV(&b, s1, s2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines %d:\n%s", len(lines), b.String())
	}
	if lines[0] != "time_s,T1,T2" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[2] != "1.000000,20," {
		t.Fatalf("ragged row %q", lines[2])
	}
	if err := writeSeriesCSV(&b); err != nil {
		t.Fatal("empty series should be a no-op")
	}
	b.Reset()
	if err := writeSeriesCSV(&b, &metrics.Series{Name: `a,"b"`}); err != nil || b.String() != `time_s,"a,""b"""`+"\n" {
		t.Fatalf("escaped header %q, %v", b.String(), err)
	}
}
