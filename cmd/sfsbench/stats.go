package main

import (
	"slices"
	"sync/atomic"
	"time"

	"sfsched"
	"sfsched/internal/metrics"
)

// procStart anchors nowNs; time.Since on a monotonic reading is a single
// vDSO clock read, about half the cost of time.Now.
var procStart = time.Now()

func nowNs() int64 { return int64(time.Since(procStart)) }

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of v, interpolated linearly
// between the two nearest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quiet summarises a host-time figure measured once per window (repetition,
// chunk) of a run by the value at the edge of the run's best quietShare: the
// figure on an undisturbed host. The host slows by about 30 % for 5 to 30 s at
// a time (a neighbour on the hypervisor); a run's median window is slow as
// soon as half the run falls in such a stretch, and then reads 30 % off the
// run before it, while the best windows of every run are quiet ones. Each
// window is itself a rate over, or a quantile of, thousands of tasks, so the
// best of them is sustained speed and not a lucky sample.
func quiet(v []float64, better string) float64 {
	if better == "higher" {
		return quantile(v, 1-quietShare)
	}
	return quantile(v, quietShare)
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver judges spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// classJain is Jain's index over weight classes of (the class's median
// service ÷ its weight). It is the proportional-share check for populations
// whose per-tenant service is a handful of charge quanta: medians ignore the
// few tenants an outlier charge or a quantum's rounding moved, while a
// weight-blind scheduler over weights 1..7 still scores 0.63.
func classJain(service []sfsched.Duration, weight []float64) float64 {
	byWeight := map[float64][]float64{}
	for i, w := range weight {
		byWeight[w] = append(byWeight[w], float64(service[i]))
	}
	var medians []sfsched.Duration
	var weights []float64
	for w, svc := range byWeight {
		medians, weights = append(medians, sfsched.Duration(median(svc))), append(weights, w)
	}
	return metrics.JainIndex(medians, weights)
}

// timedRegion is the timed part of a live run, cut into equal windows. The
// harness publishes it to the tasks, which keep only the latency samples that
// begin and end inside it and file each under the window it completed in.
type timedRegion struct {
	t0, t1 atomic.Int64 // ns; a region not yet started has t0 in the far future
	win    atomic.Int64 // ns per window
}

func (tr *timedRegion) close() { tr.t0.Store(1 << 62) }

// open starts a region of one window without an end.
func (tr *timedRegion) open(t0 int64) {
	tr.win.Store(1 << 62)
	tr.t1.Store(1 << 62)
	tr.t0.Store(t0)
}

// window returns the window of a sample stamped at stamp and completed now.
func (tr *timedRegion) window(stamp, now int64) (w int, ok bool) {
	t0 := tr.t0.Load()
	if stamp < t0 || now >= tr.t1.Load() {
		return 0, false
	}
	return int((now - t0) / tr.win.Load()), true
}

// latLog is one writer's latency samples in completion order, with the index
// at which each window's samples begin.
type latLog struct {
	ns    []int64
	start []int32
}

func (l *latLog) record(w int, ns int64) {
	for len(l.start) <= w {
		l.start = append(l.start, int32(len(l.ns)))
	}
	l.ns = append(l.ns, ns)
}

func (l *latLog) window(w int) []int64 {
	if w >= len(l.start) {
		return nil
	}
	if w+1 < len(l.start) {
		return l.ns[l.start[w]:l.start[w+1]]
	}
	return l.ns[l.start[w]:]
}

// windowQuantiles returns, for each of the quantiles qs, its value in every
// window that has samples (ns).
func windowQuantiles(logs []*latLog, windows int, qs ...float64) [][]float64 {
	out := make([][]float64, len(qs))
	var buf []int64
	for w := 0; w < windows; w++ {
		buf = buf[:0]
		for _, l := range logs {
			buf = append(buf, l.window(w)...)
		}
		if len(buf) == 0 {
			continue
		}
		slices.Sort(buf)
		for i, q := range qs {
			out[i] = append(out[i], float64(percentile(buf, q)))
		}
	}
	return out
}

// windowsFor cuts d into rateWindows windows, or more of rateWindowMax each.
func windowsFor(d time.Duration) (windows int, win time.Duration) {
	windows = max(rateWindows, int(d/rateWindowMax))
	return windows, d / time.Duration(windows)
}

// windowRate times a live closed loop for d and returns the completions per
// second of each window, and the completions counted. tr takes the tasks'
// latency samples from now until d has passed.
func windowRate(d time.Duration, completed func() int64, tr *timedRegion) (rates []float64, count int64) {
	windows, win := windowsFor(d)
	rates = make([]float64, 0, windows)
	start := nowNs()
	tr.win.Store(int64(win))
	tr.t1.Store(start + int64(windows)*int64(win))
	tr.t0.Store(start)
	prevT, prevN := start, completed()
	first := prevN
	for i := 0; i < windows; i++ {
		time.Sleep(time.Duration(start + int64(i+1)*int64(win) - nowNs()))
		t, n := nowNs(), completed()
		rates = append(rates, float64(n-prevN)/seconds(t-prevT))
		prevT, prevN = t, n
	}
	return rates, prevN - first
}

// addLive reports a live closed loop's throughput and latency quantiles, each
// taken per window and summarised by quiet.
func (r *result) addLive(workload string, rates []float64, logs []*latLog) {
	lat := windowQuantiles(logs, len(rates), 0.50, 0.90, 0.99)
	r.add("ops_per_s", quiet(rates, "higher"), "1/s")
	r.add("lat_p50_us", quiet(lat[0], "lower")/1e3, "us")
	r.extra(workload+".lat_p90_us", quiet(lat[1], "lower")/1e3, "us")
	r.extra(workload+".lat_p99_us", quiet(lat[2], "lower")/1e3, "us")
	r.extra(workload+".window_ops_per_s_median", median(rates), "1/s")
	var n int64
	for _, l := range logs {
		n += int64(len(l.ns))
	}
	r.samples["latencies"] = n
	r.samples["windows"] = int64(len(rates))
}
