// Videoserver: the paper's application-isolation scenario (Figure 6(b)) as a
// library user would write it — a software MPEG decoder that must sustain
// its frame rate while a parallel build (make -j) hammers the machine.
//
// The decoder gets a large weight; the readjustment algorithm turns that
// into "exactly one processor", so the build can take everything else but
// never the decoder's CPU. The same run under the time-sharing baseline
// shows the frame rate collapsing as build jobs are added.
//
//	go run ./examples/videoserver
package main

import (
	"fmt"

	"sfsched"
)

// perFrame is the decode cost of one frame: 1/44 s of CPU, so one full
// processor sustains ~44 fps (the paper's unloaded rate).
const perFrame = 22727 * sfsched.Microsecond

func main() {
	fmt.Println("MPEG decoding with a background parallel build (2 CPUs, 20s)")
	fmt.Printf("%-14s %12s %12s\n", "build jobs", "SFS fps", "timeshare fps")
	timeshare, err := sfsched.PolicyByName("timeshare", 0)
	if err != nil {
		panic(err)
	}
	for _, jobs := range []int{0, 2, 4, 8} {
		sfsFPS := run(sfsched.NewSFS(2), jobs)
		tsFPS := run(timeshare(2), jobs)
		fmt.Printf("%-14d %12.1f %12.1f\n", jobs, sfsFPS, tsFPS)
	}
	fmt.Println("\nSFS holds the decoder at ~44 fps regardless of build load;")
	fmt.Println("time sharing splits the CPUs evenly and the frame rate collapses.")
}

func run(s sfsched.Scheduler, jobs int) float64 {
	m := sfsched.NewMachine(sfsched.MachineConfig{
		CPUs:      2,
		Scheduler: s,
		Seed:      7,
	})
	decoder := m.Spawn(sfsched.SpawnConfig{
		Name:     "mpeg_play",
		Weight:   10000, // "a large weight": readjusted to one full CPU
		Behavior: sfsched.Inf(),
	})
	for i := 0; i < jobs; i++ {
		m.Spawn(sfsched.SpawnConfig{
			Name:     fmt.Sprintf("cc%d", i),
			Weight:   1,
			Behavior: sfsched.CompileForever(30*sfsched.Millisecond, 3*sfsched.Millisecond),
		})
	}
	horizon := sfsched.Time(20 * sfsched.Second)
	m.Run(horizon)
	frames := float64(decoder.Thread().Service) / float64(perFrame)
	return frames / sfsched.Duration(horizon).Seconds()
}
