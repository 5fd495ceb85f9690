// Command paperbench regenerates every table and figure of the paper's
// evaluation (§4) and prints them in the paper's own format, plus the
// Figure 1 timeline of the motivating example.
//
// Usage:
//
//	paperbench              # run everything
//	paperbench -run fig5    # run one experiment (fig1, fig3, fig4, fig5,
//	                        # fig6a, fig6b, fig6c, table1, fig7)
//	paperbench -iters 50000 # more iterations for the overhead benchmarks
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sfsched/internal/experiments"
	"sfsched/internal/metrics"
)

func main() {
	run := flag.String("run", "all", "experiment to run (all, fig1, fig3, fig4, fig5, fig6a, fig6b, fig6c, table1, fig7, partition, scalep)")
	iters := flag.Int("iters", 20000, "iterations for the overhead micro-benchmarks")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV data (optional)")
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
	}
	writeCSV := func(name string, series ...*metrics.Series) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := writeSeriesCSV(f, series...); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	want := func(name string) bool {
		return *run == "all" || strings.EqualFold(*run, name)
	}
	ran := false

	if want("fig1") {
		ran = true
		fmt.Println("=== Figure 1: the infeasible weights problem (1 ms quanta) ===")
		r1 := experiments.Fig4(experiments.Fig1Defaults(experiments.SFQ))
		r2 := experiments.Fig4(experiments.Fig1Defaults(experiments.SFS))
		fmt.Println(r1.Render())
		fmt.Println(r2.Render())
		writeCSV("fig1_sfq", r1.T1, r1.T2, r1.T3)
		writeCSV("fig1_sfs", r2.T1, r2.T2, r2.T3)
	}
	if want("fig3") {
		ran = true
		fmt.Println("=== Figure 3: efficacy of the scheduling heuristic ===")
		fmt.Println(experiments.Fig3(experiments.Fig3Defaults()).Render())
	}
	if want("fig4") {
		ran = true
		fmt.Println("=== Figure 4: impact of the weight readjustment algorithm ===")
		for _, kind := range []experiments.Kind{experiments.SFQ, experiments.SFQReadjust, experiments.SFS} {
			r := experiments.Fig4(experiments.Fig4Defaults(kind))
			fmt.Println(r.Render())
			writeCSV("fig4_"+string(kind), r.T1, r.T2, r.T3)
		}
	}
	if want("fig5") {
		ran = true
		fmt.Println("=== Figure 5: the short jobs problem ===")
		for _, kind := range []experiments.Kind{experiments.SFQ, experiments.SFS} {
			r := experiments.Fig5(experiments.Fig5Defaults(kind))
			fmt.Println(r.Render())
			writeCSV("fig5_"+string(kind), r.T1, r.Group, r.Short)
		}
	}
	if want("fig6a") {
		ran = true
		fmt.Println("=== Figure 6(a): proportionate allocation ===")
		fmt.Println(experiments.Fig6a(experiments.Fig6aDefaults(experiments.SFS)).Render())
	}
	if want("fig6b") {
		ran = true
		fmt.Println("=== Figure 6(b): application isolation ===")
		fmt.Println(experiments.Fig6b(experiments.Fig6bDefaults()).Render())
	}
	if want("fig6c") {
		ran = true
		fmt.Println("=== Figure 6(c): interactive performance ===")
		fmt.Println(experiments.Fig6c(experiments.Fig6cDefaults()).Render())
	}
	if want("table1") {
		ran = true
		fmt.Println("=== Table 1: scheduling overheads (lmbench analogue) ===")
		fmt.Println(experiments.Table1(*iters).Render())
	}
	if want("fig7") {
		ran = true
		fmt.Println("=== Figure 7: context switch cost vs. process count ===")
		p := experiments.Fig7Defaults()
		p.Iters = *iters
		r := experiments.Fig7(p)
		fmt.Println(r.Render())
		ts := &metrics.Series{Name: "timeshare_ns"}
		sfs := &metrics.Series{Name: "sfs_ns"}
		for i, n := range p.Procs {
			ts.X = append(ts.X, float64(n))
			ts.Y = append(ts.Y, float64(r.TS[i].Nanoseconds()))
			sfs.X = append(sfs.X, float64(n))
			sfs.Y = append(sfs.Y, float64(r.SFS[i].Nanoseconds()))
		}
		writeCSV("fig7", ts, sfs)
	}
	if want("partition") {
		ran = true
		fmt.Println("=== Extension: the partitioning alternative of §1.2 ===")
		fmt.Println(experiments.Partition(experiments.PartitionDefaults()).Render())
	}
	if want("scalep") {
		ran = true
		fmt.Println("=== Extension: SFS fidelity vs. processor count (§4.1 note) ===")
		fmt.Println(experiments.ScaleP(experiments.ScalePDefaults(experiments.SFS)).Render())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
}
