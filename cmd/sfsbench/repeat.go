package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchSpec is BENCHMARK.json, the contract the driver checks the benchmark
// against; -repeat reads the bounds from it and the tests hold the emitted
// metrics to it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// repeatCell is one end-to-end metric on one workload over two sets of runs.
type repeatCell struct {
	Workload string       `json:"workload"`
	Metric   string       `json:"metric"`
	Unit     string       `json:"unit"`
	Better   string       `json:"better"`
	Bound    float64      `json:"bound"`
	Sets     [2]repeatSet `json:"sets"`
	// Worse is how much worse the second set's median is than the first's,
	// as a share of the first (negative: better). Spread is the larger of
	// the two sets' (Q3 − Q1) ÷ median.
	Worse  float64 `json:"worse"`
	Spread float64 `json:"spread"`
	OK     bool    `json:"ok"`
}

type repeatSet struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
}

// runRepeat is -repeat N: two sets of N runs of every named workload, each
// run a fresh process with its own seed (what the driver does with ten), and
// per metric and workload the median, the quartiles, the set-to-set
// difference and the bound. It exits non-zero when a difference or a spread
// (set-up time's excepted, as in the driver) exceeds its bound.
func runRepeat(o options, names []string, n int, specPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "sfsbench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "sfsbench: %v\n", err)
		return 1
	}
	values := map[string]*[2][]float64{} // workload/metric → per set
	for set := 0; set < 2; set++ {
		for _, name := range names {
			for i := 0; i < n; i++ {
				seed := o.seed + uint64(set*n+i)
				args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0"}
				if o.short {
					args = append(args, "-short")
				}
				var buf bytes.Buffer
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = &buf, stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(stderr, "sfsbench: %s seed %d: %v\n%s", name, seed, err, buf.String())
					return 1
				}
				lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
				var line struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value float64 `json:"value"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || !line.Correct {
					fmt.Fprintf(stderr, "sfsbench: %s seed %d: no correct result (%v)\n", name, seed, err)
					return 1
				}
				for m, v := range line.Metrics {
					key := name + "/" + m
					if values[key] == nil {
						values[key] = &[2][]float64{}
					}
					values[key][set] = append(values[key][set], v.Value)
				}
				fmt.Fprintf(stderr, "set %d %s seed %d done\n", set+1, name, seed)
			}
		}
	}
	code := 0
	var cells []repeatCell
	fmt.Fprintf(stdout, "%-6s %-12s %14s %14s %8s %8s %6s\n", "", "metric", "median 1", "median 2", "worse", "spread", "bound")
	for _, name := range names {
		for _, sm := range spec.EndToEnd {
			v := values[name+"/"+sm.Name]
			if v == nil {
				fmt.Fprintf(stderr, "sfsbench: %s never reported %s\n", name, sm.Name)
				return 1
			}
			c := repeatCell{Workload: name, Metric: sm.Name, Unit: sm.Unit, Better: sm.Better, Bound: sm.Bound}
			for s := range c.Sets {
				q1, q2, q3 := quartiles(v[s])
				c.Sets[s] = repeatSet{Values: v[s], Q1: q1, Median: q2, Q3: q3}
				if q2 != 0 {
					c.Spread = max(c.Spread, (q3-q1)/q2)
				}
			}
			c.Worse = (c.Sets[1].Median - c.Sets[0].Median) / c.Sets[0].Median
			if sm.Better == "higher" {
				c.Worse = -c.Worse
			}
			c.OK = c.Worse <= sm.Bound && (sm.Name == "setup_s" || c.Spread <= sm.Bound)
			verdict := ""
			if !c.OK {
				verdict, code = "  EXCEEDS ITS BOUND", 1
			}
			fmt.Fprintf(stdout, "%-6s %-12s %14.4f %14.4f %+8.4f %8.4f %6.2f%s\n", name, sm.Name,
				c.Sets[0].Median, c.Sets[1].Median, c.Worse, c.Spread, sm.Bound, verdict)
			cells = append(cells, c)
		}
	}
	if o.out != "" {
		doc := struct {
			Host  hostRecord   `json:"host"`
			Runs  int          `json:"runs_per_set"`
			Cells []repeatCell `json:"cells"`
		}{host(o), n, cells}
		b, _ := json.MarshalIndent(doc, "", "  ") // numbers and strings only: cannot fail
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "sfsbench: %v\n", err)
			return 1
		}
	}
	return code
}
