package main

import (
	"runtime"
	"time"

	"sfsched"
)

// Every size, rate and duration of the four workloads is fixed here and
// never derived from a measurement at run time: two runs of one commit and
// one seed offer the system the same inputs. (BENCHMARK.json may carry
// nothing but the contract's keys, so the constants live beside the code
// that uses them; bench/README.md repeats them.)
const (
	// Every live runtime dispatches with this quantum: long against the
	// no-op tasks, so slice enforcement stays armed but never fires on them.
	liveQuantum = sfsched.Millisecond

	// flood: closed loop, one self-resubmitting chain pair per tenant.
	floodTenants   = 4096
	floodQueueCap  = 4
	floodChains    = 2               // tasks each tenant keeps outstanding
	floodWarmTasks = 262144          // completions that end warm-up (part of set-up)
	floodLatEvery  = 64              // one task in this many is timed submit→completion
	floodLead      = 4 * time.Second // untimed run between set-up and the timed region

	// wake: W machines × 1 worker behind a cluster; every submit wakes a
	// blocked tenant. Closed-loop form: wakeChains rings of tenants, each
	// task wakes its ring's next tenant. Open-loop form (-trace 1): every
	// wakeTick a burst of wakeBurst tasks stamped with the tick's due time.
	wakeTenants    = 2048
	wakeQueueCap   = 8
	wakeK          = 2
	wakeChains     = 64
	wakeLatEvery   = 64                     // one task in this many is timed submit→completion
	wakeLatCap     = 512                    // samples a tenant has room for before its log grows (a 25 s run takes ≈ 150)
	wakeWarmBursts = 64                     // closed-loop bursts that end warm-up (part of set-up)
	wakeTick       = 2 * time.Millisecond   // open loop
	wakeBurst      = 128                    // open loop: 64 k tasks/s, workers ~15 % busy on this host
	wakeSpin       = 400 * time.Microsecond // the generator spins this long before each tick (nanosleep oversleeps ~100–250 µs)
	wakeStall      = 50 * time.Millisecond  // -inject stall

	// hogs: deterministic Manual runtime on a FakeClock.
	hogsWorkers     = 4
	hogsShards      = 2
	hogsCount       = 8
	hogsHeavyWeight = 10 // hog 0; the rest weigh 1, so hog 0 is infeasible
	hogsInteractive = 64
	hogsQuantum     = 50 * sfsched.Millisecond
	hogsClosure     = 50 * sfsched.Millisecond // a hog closure runs this long, deaf to its slice
	hogsBurst       = 100 * sfsched.Microsecond
	hogsTick        = sfsched.Millisecond
	hogsThinkMean   = 2 * sfsched.Second        // per interactive tenant
	hogsChurnEvery  = 100 * sfsched.Millisecond // Register/SetWeight/Unregister cadence
	hogsStatsEvery  = 100 * sfsched.Millisecond // Rebalance + Stats + ShardStats cadence
	hogsSpan        = 60 * sfsched.Second       // simulated
	hogsSpanShort   = 2 * sfsched.Second        // -short
	hogsWarm        = 5 * sfsched.Second        // simulated warm-up: set-up's share of the span, excluded from the exact figures (-short: a quarter of the span)

	// sim: internal/machine over exact-mode SFS.
	simCPUs        = 4
	simThreads     = 10000
	simThreadsFast = 1000 // -short, and the GMS fidelity pass
	simQuantum     = sfsched.Millisecond
	simChunk       = sfsched.Second      // simulated span of one timed chunk (~4 k decisions)
	simWarm        = 2 * sfsched.Second  // simulated warm-up (part of set-up)
	simFidelity    = 20 * sfsched.Second // simulated span of the untimed GMS pass
	simRecord      = 10 * sfsched.Second // simulated span past the warm-up that the exact latencies come from
	simLagQuanta   = 4                   // check: no compute-bound thread further than this from its share
	simInfShare    = 0.7                 // the rest block and wake (Interactive / CompileForever)

	// flood and wake cut the timed region into this many windows, or into
	// more of rateWindowMax each; every host-time figure is taken per window
	// (hogs: per repetition, sim: per chunk) and summarised by quiet, the edge
	// of the run's best quietShare.
	rateWindows   = 20
	rateWindowMax = 500 * time.Millisecond
	quietShare    = 0.1

	// peak_rss_mb is the peak over samples this far apart (each stops the
	// world for some tens of µs).
	memSampleEvery = 100 * time.Millisecond

	// Set-up is built this many times per run and its median reported; the
	// last build is the one measured.
	setupRepeats = 5
)

// workersFor is W: clamp(NumCPU, 2, 4). GOMAXPROCS is set to it and no
// workload keeps more than W goroutines busy.
func workersFor() int {
	w := runtime.NumCPU()
	if w < 2 {
		w = 2
	}
	if w > 4 {
		w = 4
	}
	return w
}
