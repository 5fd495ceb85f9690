package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func shortOptions(workload string, seed uint64) options {
	return options{workload: workload, seed: seed, seconds: 0.4, short: true, W: workersFor(), stdout: &bytes.Buffer{}}
}

func spec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics holds a result to the contract: every named metric exactly
// once with its unit, and no unnamed metric.
func checkMetrics(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range res.metrics {
		seen[m.Name]++
	}
	for _, w := range want {
		if seen[w.Name] != 1 {
			t.Errorf("%s: metric %s emitted %d times, want once", res.workload, w.Name, seen[w.Name])
		}
		delete(seen, w.Name)
		for _, m := range res.metrics {
			if m.Name == w.Name && m.Unit != w.Unit {
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", res.workload, w.Name, m.Unit, w.Unit)
			}
		}
	}
	for name := range seen {
		t.Errorf("%s: metric %s is emitted but not named in BENCHMARK.json", res.workload, name)
	}
}

func TestSpecNamesTheCodesMetrics(t *testing.T) {
	s := spec(t)
	names := func(ms []specMetric) (out []metric) {
		for _, m := range ms {
			out = append(out, metric{m.Name, 0, m.Unit})
		}
		return out
	}
	if got := names(s.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end of BENCHMARK.json is %v, the code emits %v", got, endToEnd)
	}
	if got := names(s.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer of BENCHMARK.json is %v, the code emits %v", got, perLayer)
	}
	var wl []string
	for _, w := range s.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("workloads of BENCHMARK.json are %v, the code runs %v", wl, workloadNames)
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// Every workload at -short scale through the command's own entry point: exit
// code 0, the driver's last line, every end-to-end metric once and non-zero.
func TestWorkloadsShort(t *testing.T) {
	s := spec(t)
	begin := time.Now()
	for _, name := range workloadNames {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", name, "--seed", "7", "--seconds", "0.4", "--trace", "0", "-short"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit code %d\n%s%s", name, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(s.EndToEnd) {
			t.Errorf("%s: %d metrics on the last line, want %d", name, len(line.Metrics), len(s.EndToEnd))
		}
		for _, m := range s.EndToEnd {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", name, m.Name, got, ok, m.Unit)
			}
		}
		if !strings.Contains(lines[0], `"NumCPU"`) || !strings.Contains(lines[0], `"GOMAXPROCS"`) {
			t.Errorf("%s: first line is not the host record: %s", name, lines[0])
		}
	}
	if took := time.Since(begin); took > 15*time.Second {
		t.Errorf("the four workloads took %v at -short scale", took)
	}
}

func TestEndToEndMetricsExactlyOnce(t *testing.T) {
	s := spec(t)
	for _, name := range workloadNames {
		res, err := runWorkload(shortOptions(name, 11))
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, res, s.EndToEnd)
	}
}

func TestPerLayerMetricsExactlyOnce(t *testing.T) {
	s := spec(t)
	for _, name := range workloadNames {
		o := shortOptions(name, 5)
		o.trace = true
		o.out = filepath.Join(t.TempDir(), "spans.json")
		res, err := runWorkload(o)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.problems) > 0 {
			t.Errorf("%s traced: %v", name, res.problems)
		}
		checkMetrics(t, res, s.PerLayer)
		// The flood budget's rows must add up to the live per-task cost.
		sum := res.get("core.pick_ns") + res.get("core.charge_ns") + res.get("engine.self_cycle_ns") +
			res.get("rt.self_cycle_ns") + res.get("residual.concurrency_ns")
		if live := res.get("flood.cost_per_task_ns"); live <= 0 || sum < 0.999*live || sum > 1.001*live {
			t.Errorf("%s: flood budget rows sum to %.1f ns, live per-task cost is %.1f ns", name, sum, live)
		}
		if !strings.Contains(o.stdout.(*bytes.Buffer).String(), "residual.concurrency_ns") {
			t.Errorf("%s: no layer budget table printed", name)
		}
	}
}

// A deliberately dropped completion and a deliberately reordered per-tenant
// completion must each make the run exit non-zero.
func TestPlantedFaultsFailTheRun(t *testing.T) {
	for _, c := range []struct{ workload, fault, want string }{
		{"flood", "drop", "submitted but"},
		{"flood", "reorder", "FIFO order"},
		{"wake", "drop", "accepted but"},
		{"wake", "reorder", "FIFO order"},
		{"hogs", "drop", "completed"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", c.workload, "-seconds", "0.4", "-short", "-inject", c.fault}, &stdout, &stderr)
		if code == 0 {
			t.Errorf("%s with a planted %s exited 0", c.workload, c.fault)
		}
		if !strings.Contains(stdout.String(), "CHECK FAILED") || !strings.Contains(stdout.String(), c.want) {
			t.Errorf("%s with a planted %s: no failed check naming %q in\n%s", c.workload, c.fault, c.want, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "sim", "-short", "-inject", "drop"}, &stdout, &stderr); code == 0 {
		t.Error("a fault that cannot be planted was accepted silently")
	}
}

// hogs and sim are exact: two runs of one seed agree bit for bit, a second
// seed differs; and every generated input is a pure function of the seed.
func TestDeterminism(t *testing.T) {
	exact := func(name string, seed uint64) []float64 {
		res, err := runWorkload(shortOptions(name, seed))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.problems) > 0 {
			t.Fatalf("%s: %v", name, res.problems)
		}
		out := []float64{res.get("lat_p50_us")}
		for _, m := range res.extras {
			out = append(out, m.Value)
		}
		return out
	}
	for _, name := range []string{"hogs", "sim"} {
		a, b, c := exact(name, 21), exact(name, 21), exact(name, 22)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 21 gave %v, then %v", name, a, b)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 21 and 22 gave the same figures %v", name, a)
		}
	}
	h1, h2, h3 := simulateHogs(shortOptions("hogs", 4)), simulateHogs(shortOptions("hogs", 4)), simulateHogs(shortOptions("hogs", 5))
	if h1.fingerprint() != h2.fingerprint() || h1.fingerprint() == h3.fingerprint() {
		t.Errorf("hogs fingerprints: seed 4 %x and %x, seed 5 %x", h1.fingerprint(), h2.fingerprint(), h3.fingerprint())
	}
	if g1, g2 := simFidelityPass(shortOptions("sim", 9)), simFidelityPass(shortOptions("sim", 9)); g1 != g2 || g1 <= 0 {
		t.Errorf("GMS lag of seed 9: %v, then %v", g1, g2)
	}

	type inputs struct {
		Flood, Sim []float64
		WakeW      []float64
		WakeOrder  []int
		WakeSched  []uint16
		Hogs       hogsInput
	}
	gen := func(seed uint64) inputs {
		in := inputs{Flood: floodWeights(seed, 64), Sim: simWeights(seed, 64), Hogs: hogsInputs(seed, hogsSpanShort)}
		in.WakeW, in.WakeOrder, in.WakeSched = wakeInputs(seed, 64, 8, 32)
		return in
	}
	if !reflect.DeepEqual(gen(3), gen(3)) {
		t.Error("the generated inputs are not a pure function of the seed")
	}
	a, b := gen(3), gen(4)
	if reflect.DeepEqual(a.Flood, b.Flood) || reflect.DeepEqual(a.Sim, b.Sim) || reflect.DeepEqual(a.WakeSched, b.WakeSched) ||
		reflect.DeepEqual(a.WakeOrder, b.WakeOrder) || reflect.DeepEqual(a.Hogs, b.Hogs) {
		t.Error("seeds 3 and 4 generate the same inputs")
	}
	for tick := 0; tick < 32; tick++ {
		seen := map[uint16]bool{}
		for _, i := range a.WakeSched[tick*8 : tick*8+8] {
			if seen[i] {
				t.Fatalf("tick %d submits twice to tenant %d", tick, i)
			}
			seen[i] = true
		}
	}
}

// The coordinated-omission self-check: with a wakeStall-long stall of every
// worker planted in each tenth of an open-loop run, the generator must keep
// its schedule, and every arrival due during a stall must carry the rest of
// the stall in its latency.
func TestOpenLoopChargesStallsToArrivals(t *testing.T) {
	o := shortOptions("wake", 13)
	o.inject = "stall"
	defer generatorP(o)()
	wr, err := newWakeRun(o)
	if err != nil {
		t.Fatal(err)
	}
	const span = time.Second
	out := wr.generate(span)
	res := newResult("wake")
	wr.finish(res)
	if len(res.problems) > 0 || res.failed != 0 {
		t.Fatalf("stalled run: %v, %d failed", res.problems, res.failed)
	}
	// Ten stalls of wakeStall in span: arrivals due in the first half of a
	// stall wait at least half of it.
	inFirstHalf := float64(10*wakeStall/2) / float64(span)
	var late int
	for _, l := range out.lat {
		if l >= int64(wakeStall/2) {
			late++
		}
	}
	if got := float64(late) / float64(len(out.lat)); got < 0.8*inFirstHalf {
		t.Errorf("%.1f %% of arrivals waited half a stall or more; %.1f %% were due in the first half of one", 100*got, 100*inFirstHalf)
	}
	if p99 := percentile(out.lat, 0.99); p99 < int64(wakeStall*8/10) {
		t.Errorf("p99 latency %v does not show the %v stalls", time.Duration(p99), wakeStall)
	}
	// A generator that waited for completions would fall a whole stall
	// behind; an open-loop one stays within scheduling noise of its ticks.
	if lateP99 := percentile(out.late, 0.99); lateP99 > int64(wakeStall/4) {
		t.Errorf("the generator fell %v behind its schedule during the stalls", time.Duration(lateP99))
	}
	if int64(len(out.lat)) != out.submitted {
		t.Errorf("%d arrivals due, %d latencies", out.submitted, len(out.lat))
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// driver judges spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1 2 4 8 16 = %v %v %v, Python gives 1.5 4 12", q1, q2, q3)
	}
}

// Latency samples are filed under the window they completed in, quantiles are
// taken per window, and quiet reads the edge of the best tenth of the windows:
// a slow stretch that covers most of a run must not move the figure.
func TestWindowedQuietFigures(t *testing.T) {
	var tr timedRegion
	tr.close()
	if _, ok := tr.window(5, 6); ok {
		t.Error("a closed region took a sample")
	}
	tr.win.Store(100)
	tr.t1.Store(1000 + 20*100)
	tr.t0.Store(1000)
	a, b := &latLog{}, &latLog{}
	for w := 0; w < 20; w++ {
		lat := int64(10)
		if w >= 3 {
			lat = 40 // 17 of the 20 windows are slow
		}
		for i, l := range []*latLog{a, b} {
			now := int64(1000 + w*100 + 10 + i)
			if w%2 == i {
				continue // each log skips every other window
			}
			got, ok := tr.window(now-lat, now)
			if !ok || got != w {
				t.Fatalf("sample completed at %d: window %d, %v; want %d", now, got, ok, w)
			}
			l.record(got, lat)
		}
	}
	if _, ok := tr.window(900, 1100); ok {
		t.Error("a sample stamped before the region was kept")
	}
	if _, ok := tr.window(2900, 3000); ok {
		t.Error("a sample completed at the region's end was kept")
	}
	q := windowQuantiles([]*latLog{a, b}, 20, 0.5)[0]
	if len(q) != 20 || q[0] != 10 || q[2] != 10 || q[3] != 40 || q[19] != 40 {
		t.Fatalf("per-window medians %v", q)
	}
	if got := quiet(q, "lower"); got != 10 {
		t.Errorf("quiet latency %v, want 10", got)
	}
	if got := median(q); got != 40 {
		t.Errorf("median latency %v, want 40", got)
	}
	rates := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if lo, hi := quiet(rates, "lower"), quiet(rates, "higher"); lo != 2 || hi != 10 {
		t.Errorf("quiet of 1..11: %v and %v, want 2 and 10", lo, hi)
	}
}
