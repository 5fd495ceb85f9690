// Command sfsbench is the repository's one benchmark: four workloads
// (flood, wake, hogs, sim) over the real five-layer stack — the sfsched
// facade → internal/cluster → internal/rt → internal/engine → the policy in
// internal/core — reported as the end-to-end metrics of BENCHMARK.json and,
// with -trace 1, as the per-layer metrics of a layered replay. Every later
// performance claim is measured with it; bench/README.md describes the
// workloads, the metrics and how to read the layer budget.
//
//	go run . -workload flood -seed 1 -seconds 10 -trace 0
//	go run . -seed 1                  # all four workloads, untraced
//	go run . -workload flood -trace 1 # per-layer metrics and the layer budget
//	go run . -repeat 5                # two sets of five runs against the bounds
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is non-zero when a
// correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

var workloadNames = []string{"flood", "wake", "hogs", "sim"}

// plantable lists the faults -inject can plant, by workload. hogs and sim
// keep one task in flight per tenant, so there is no order to swap.
var plantable = map[string]bool{
	"flood/drop": true, "flood/reorder": true,
	"wake/drop": true, "wake/reorder": true,
	"hogs/drop": true,
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool
	inject   string // drop | reorder (command line), stall (open-loop wake, tests): planted faults a check must catch
	out      string // span file of a traced run
	W        int
	stdout   io.Writer
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is what one workload run reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	metrics   []metric
	extras    []metric // printed for the reader, not part of the JSON line
	problems  []string // failed correctness checks
	samples   map[string]int64
}

func newResult(workload string) *result {
	return &result{workload: workload, samples: map[string]int64{}}
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) extra(name string, v float64, unit string) {
	r.extras = append(r.extras, metric{name, v, unit})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// memSampler tracks the peak of the memory the Go runtime has in use — what it
// obtained from the system less the heap spans that hold nothing — which it
// samples every memSampleEvery. Two simpler readings do not serve:
// runtime.MemStats.Sys grows in 4 MB steps, and whether a run takes the next
// one depends on when a collection happens to fall (wake read 31, 35 or 39 MB
// from run to run); getrusage's ru_maxrss starts at the resident set of the
// process that forked this one, so it reports the driver's size for every
// workload smaller than the driver.
type memSampler struct {
	stop chan struct{}
	peak chan uint64
}

func memInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys - ms.HeapIdle
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		var peak uint64
		for {
			peak = max(peak, memInUse())
			select {
			case <-tick.C:
			case <-s.stop:
				s.peak <- peak
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak it saw, in bytes.
func (s *memSampler) finish() uint64 {
	close(s.stop)
	return <-s.peak
}

// repeatSetup builds a workload's set-up setupRepeats times, discards all
// but the last build and returns it with the median set-up time in seconds.
func repeatSetup[T any](build func() (T, int64, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			discard(last)
			// Collect the discarded build before the next one allocates, so
			// that peak memory is the measured build's and not a matter of
			// when the collector happened to run.
			runtime.GC()
		}
		v, ns, err := build()
		if err != nil {
			return last, 0, err
		}
		last = v
		times = append(times, seconds(ns))
	}
	return last, median(times), nil
}

// hostRecord is printed with every output: a number without it cannot be
// compared with another.
type hostRecord struct {
	NumCPU     int     `json:"NumCPU"`
	GOMAXPROCS int     `json:"GOMAXPROCS"`
	W          int     `json:"W"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Short      bool    `json:"short,omitempty"`
	Trace      bool    `json:"trace"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func host(o options) hostRecord {
	return hostRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), W: o.W,
		GoVersion: runtime.Version(), Commit: commit(), Seed: o.seed,
		Seconds: o.seconds, Short: o.short, Trace: o.trace,
	}
}

// runWorkload runs one workload, untraced or traced, and returns its result.
func runWorkload(o options) (*result, error) {
	res := newResult(o.workload)
	mem := startMemSampler()
	var err error
	switch {
	case o.inject != "" && !plantable[o.workload+"/"+o.inject]:
		err = fmt.Errorf("-inject %s cannot be planted in %s", o.inject, o.workload)
	case o.trace:
		err = runTrace(o, res)
	case o.workload == "flood":
		err = runFlood(o, res)
	case o.workload == "wake":
		err = runWake(o, res)
	case o.workload == "hogs":
		err = runHogs(o, res)
	case o.workload == "sim":
		err = runSim(o, res)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	peak := mem.finish()
	if err != nil {
		return nil, err
	}
	if !o.trace {
		res.add("peak_rss_mb", float64(peak)/(1<<20), "MB")
	}
	if res.attempted < 1 {
		res.problem("%s: nothing was attempted", o.workload)
		res.attempted = 1
	}
	return res, nil
}

// print writes the human-readable metric table, the sample counts, any
// failed checks, and — last — the driver's JSON line.
func (r *result) print(w io.Writer) {
	for _, m := range append(append([]metric(nil), r.metrics...), r.extras...) {
		fmt.Fprintf(w, "%-6s %-34s %18.6f %s\n", r.workload, m.Name, m.Value, m.Unit)
	}
	for _, k := range slices.Sorted(maps.Keys(r.samples)) {
		fmt.Fprintf(w, "%-6s samples.%-26s %18d count\n", r.workload, k, r.samples[k])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-6s CHECK FAILED: %s\n", r.workload, p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line) // a struct of numbers and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", b)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	trace := fs.Int("trace", 0, "1 = layered replay and per-layer metrics, 0 = end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run two sets of N runs per workload and hold them to the bounds of -spec")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark contract, read by -repeat")
	fs.StringVar(&o.workload, "workload", "all", "flood, wake, hogs, sim or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per workload")
	fs.BoolVar(&o.short, "short", false, "small populations and spans (tests)")
	fs.StringVar(&o.inject, "inject", "", "plant a fault a check must catch: drop or reorder")
	fs.StringVar(&o.out, "out", "", "with -trace 1: write the spans to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "sfsbench: bad arguments")
		fs.Usage()
		return 2
	}
	o.trace = *trace == 1
	o.W = workersFor()
	o.stdout = stdout
	prev := runtime.GOMAXPROCS(o.W)
	defer runtime.GOMAXPROCS(prev)

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	if *repeat > 0 {
		return runRepeat(o, names, *repeat, *spec, stdout, stderr)
	}
	hb, _ := json.Marshal(map[string]hostRecord{"host": host(o)})
	fmt.Fprintf(stdout, "%s\n", hb)
	code := 0
	for _, name := range names {
		o.workload = name
		res, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(stderr, "sfsbench: %s: %v\n", name, err)
			return 1
		}
		res.print(stdout)
		if len(res.problems) > 0 {
			code = 1
		}
	}
	return code
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
