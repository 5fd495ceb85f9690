// Command sfsim runs an ad-hoc scheduling simulation: a set of compute-bound
// tasks with user-specified weights on a p-CPU machine under a chosen
// scheduler, reporting the delivered shares and the deviation from the GMS
// ideal.
//
// Usage:
//
//	sfsim -sched sfs -cpus 2 -weights 1,10,1 -duration 30s
//	sfsim -sched sfq -cpus 4 -weights 20,5,1,1,1,1 -quantum 100ms
//
// Available schedulers: sfs, sfs-fixed, sfs-noadjust, sfq, sfq+readjust,
// timeshare, stride, bvt.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sfsched/internal/experiments"
	"sfsched/internal/gms"
	"sfsched/internal/machine"
	"sfsched/internal/metrics"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/workload"
)

func main() {
	schedName := flag.String("sched", "sfs", "scheduler kind")
	cpus := flag.Int("cpus", 2, "number of processors")
	weightsArg := flag.String("weights", "1,10,1", "comma-separated task weights")
	durArg := flag.Duration("duration", 30*time.Second, "simulated duration")
	quantumArg := flag.Duration("quantum", 200*time.Millisecond, "maximum quantum")
	seed := flag.Uint64("seed", 1, "workload RNG seed")
	flag.Parse()

	weights, err := parseWeights(*weightsArg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfsim: %v\n", err)
		os.Exit(2)
	}
	quantum := simtime.Duration(quantumArg.Microseconds())
	horizon := simtime.Time(durArg.Microseconds())

	s, err := experiments.NewScheduler(experiments.Kind(*schedName), *cpus, quantum)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sfsim: %v (kinds: %v)\n", err, experiments.Kinds())
		os.Exit(2)
	}
	m := machine.New(machine.Config{CPUs: *cpus, Scheduler: s, Seed: *seed})
	fluid := gms.New(*cpus)
	m.SetHooks(machine.Hooks{
		Runnable:       fluid.Add,
		Unrunnable:     fluid.Remove,
		WeightChanging: func(t *sched.Thread, now simtime.Time) { fluid.Advance(now) },
	})

	tasks := make([]*machine.Task, len(weights))
	for i, w := range weights {
		tasks[i] = m.Spawn(machine.SpawnConfig{
			Name:     fmt.Sprintf("task%d", i+1),
			Weight:   w,
			Behavior: workload.Inf(),
		})
	}
	m.Run(horizon)
	fluid.Advance(horizon)

	table := metrics.Table{
		Title: fmt.Sprintf("%s on %d CPUs, %v quantum, %v horizon",
			s.Name(), *cpus, quantum, simtime.Duration(horizon)),
		Headers: []string{"task", "weight", "service", "share", "GMS ideal", "lag"},
	}
	var services []simtime.Duration
	for _, k := range tasks {
		services = append(services, k.Thread().Service)
	}
	shares := metrics.SharesOf(services...)
	for i, k := range tasks {
		th := k.Thread()
		table.AddRow(
			th.Name,
			strconv.FormatFloat(th.Weight, 'g', -1, 64),
			fmt.Sprintf("%.3fs", th.Service.Seconds()),
			fmt.Sprintf("%.3f", shares[i]),
			fmt.Sprintf("%.3fs", fluid.Service(th)),
			fmt.Sprintf("%+.3fs", fluid.Lag(th)),
		)
	}
	fmt.Println(table.String())

	ws := make([]float64, len(tasks))
	threads := make([]*sched.Thread, len(tasks))
	for i, k := range tasks {
		ws[i] = k.Thread().Weight
		threads[i] = k.Thread()
	}
	fmt.Printf("Jain fairness index (per-weight): %.4f\n", metrics.JainIndex(services, ws))
	fmt.Printf("max |lag vs GMS|: %.3fs\n", fluid.MaxAbsLag(threads))
	st := m.Stats()
	fmt.Printf("dispatches=%d switches=%d preemptions=%d migrations=%d idle=%v\n",
		st.Dispatches, st.ContextSwitches, st.Preemptions, st.Migrations, st.IdleTime)
}

func parseWeights(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %v", p, err)
		}
		if w <= 0 {
			return nil, fmt.Errorf("weight %g must be positive", w)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no weights given")
	}
	return out, nil
}
