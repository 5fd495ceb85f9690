package main

import (
	"fmt"
	"math"
	"slices"

	"sfsched"
	"sfsched/internal/sched"
	"sfsched/internal/xrand"
)

// sim is the deterministic simulator workload: internal/machine over
// exact-mode SFS on simCPUs simulated CPUs with simThreads threads — 70 %
// compute-bound (workload.Inf, weights 1..7, thread 0 infeasibly heavy), 30 %
// blocking and waking (Interactive / CompileForever) — at a 1 ms quantum,
// one goroutine, no observer attached while timed. rt and cluster do nothing
// here and policy + engine + the event heap do everything, at a 10 k-thread
// scale with block/wake churn (the OverheadChurn suspect): an rt
// optimisation predicts no change on sim; a core/runqueue/readjust
// optimisation must move sim and flood together. A separate untimed pass
// with internal/gms attached gives the fidelity figure.

type simRun struct {
	m        *sfsched.Machine
	all      []*sfsched.Task
	inf      []*sfsched.Task // the compute-bound threads
	lat      []int64         // blocking threads' wake→burst-end response times, simulated µs
	bursts   int64
	until    sfsched.Time
	setupNs  int64
	recordTo sfsched.Time // response times are kept for bursts ending in (warm, recordTo]
}

// simWeights is the seeded input of sim: one weight per thread; thread 0 is
// given more than a CPU's share of the total, so one weight is infeasible.
func simWeights(seed uint64, n int) []float64 {
	rng := xrand.New(seed ^ 0x73696d) // "sim"
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = float64(1 + rng.Intn(7))
		sum += w[i]
	}
	w[0] = sum // half of the new total: far past the 1/simCPUs feasibility limit
	return w
}

// newSimRun spawns the population and runs the simulated warm-up; that is
// sim's set-up. The machine's own seed drives the blocking threads' burst
// and think times.
func newSimRun(o options, threads int, record sfsched.Duration) *simRun {
	begin := nowNs()
	sr := &simRun{}
	sr.m = sfsched.NewMachine(sfsched.MachineConfig{
		CPUs:      simCPUs,
		Scheduler: sfsched.NewSFS(simCPUs, sfsched.WithQuantum(simQuantum)),
		Seed:      o.seed,
	})
	warm := sfsched.Time(simWarm)
	sr.recordTo = warm.Add(record)
	nInf := int(float64(threads) * simInfShare)
	for i, w := range simWeights(o.seed, threads) {
		cfg := sfsched.SpawnConfig{Name: fmt.Sprintf("t%d", i), Weight: w}
		switch {
		case i < nInf:
			cfg.Behavior = sfsched.Inf()
		case i%2 == 0:
			cfg.Behavior = sfsched.Interactive(2*sfsched.Millisecond, 50*sfsched.Millisecond)
		default:
			cfg.Behavior = sfsched.CompileForever(5*sfsched.Millisecond, 20*sfsched.Millisecond)
		}
		var k *sfsched.Task
		if i >= nInf {
			cfg.OnBurstEnd = func(now sfsched.Time) {
				sr.bursts++
				if now > warm && now <= sr.recordTo {
					sr.lat = append(sr.lat, int64(now.Sub(k.LastWake())))
				}
			}
		}
		k = sr.m.Spawn(cfg)
		sr.all = append(sr.all, k)
		if i < nInf {
			sr.inf = append(sr.inf, k)
		}
	}
	sr.advance(simWarm)
	sr.setupNs = nowNs() - begin
	return sr
}

func (sr *simRun) advance(d sfsched.Duration) {
	sr.until = sr.until.Add(d)
	sr.m.Run(sr.until)
}

// infLagMax is the proportional-share check over the compute-bound threads,
// thread 0 excepted (it is capped at one CPU, not weight-bound): the largest
// |service − weight·λ| in quanta, λ being their common service per unit of
// weight. SFS keeps it within a few quanta however long the run, which
// matters here because the simulated span depends on the host's speed (a
// ratio such as Jain's index is all rounding when a thread has run three
// quanta).
func (sr *simRun) infLagMax() float64 {
	var service, weight float64
	for _, k := range sr.inf[1:] {
		service, weight = service+float64(k.Thread().Service), weight+k.Thread().Weight
	}
	lambda := service / weight
	var worst float64
	for _, k := range sr.inf[1:] {
		th := k.Thread()
		worst = max(worst, math.Abs(float64(th.Service)-th.Weight*lambda))
	}
	return worst / float64(simQuantum)
}

// simFidelityPass is the untimed GMS pass: simThreadsFast threads with the
// fluid reference attached through the machine's hooks, for simFidelity
// simulated seconds past the warm-up. It returns max |service − GMS fluid
// service| over all threads, in simulated milliseconds — exact.
func simFidelityPass(o options) float64 {
	m := sfsched.NewMachine(sfsched.MachineConfig{
		CPUs:      simCPUs,
		Scheduler: sfsched.NewSFS(simCPUs, sfsched.WithQuantum(simQuantum)),
		Seed:      o.seed,
	})
	fluid := sfsched.NewGMS(simCPUs)
	m.SetHooks(sfsched.Hooks{
		Runnable:       fluid.Add,
		Unrunnable:     fluid.Remove,
		WeightChanging: func(_ *sched.Thread, now sfsched.Time) { fluid.Advance(now) },
	})
	nInf := int(float64(simThreadsFast) * simInfShare)
	var threads []*sched.Thread
	for i, w := range simWeights(o.seed, simThreadsFast) {
		cfg := sfsched.SpawnConfig{Name: fmt.Sprintf("t%d", i), Weight: w, Behavior: sfsched.Inf()}
		if i >= nInf {
			cfg.Behavior = sfsched.Interactive(2*sfsched.Millisecond, 50*sfsched.Millisecond)
		}
		threads = append(threads, m.Spawn(cfg).Thread())
	}
	horizon := sfsched.Time(simFidelity)
	m.Run(horizon)
	fluid.Advance(horizon)
	return fluid.MaxAbsLag(threads) * 1e3
}

func simSizes(o options) (threads int, record sfsched.Duration) {
	if o.short {
		return simThreadsFast, simChunk
	}
	return simThreads, simRecord
}

// runSim is the untraced end-to-end run: after set-up the simulation
// advances in simChunk-long chunks until the measured seconds are used up
// (and at least through the span the exact figures are taken from); events
// per second is the chunks' rates summarised by quiet.
func runSim(o options, res *result) error {
	threads, record := simSizes(o)
	sr, setup, err := repeatSetup(func() (*simRun, int64, error) {
		sr := newSimRun(o, threads, record)
		return sr, sr.setupNs, nil
	}, func(*simRun) {})
	if err != nil {
		return err
	}
	var rates []float64
	var lag float64
	deadline := nowNs() + int64(o.duration())
	first := sr.m.Stats().Dispatches
	for nowNs() < deadline || sr.until < sr.recordTo {
		t, n := nowNs(), sr.m.Stats().Dispatches
		sr.advance(simChunk)
		rates = append(rates, float64(sr.m.Stats().Dispatches-n)/seconds(nowNs()-t))
		if sr.until == sr.recordTo {
			lag = sr.infLagMax() // taken at a fixed simulated instant, so it is exact like the latencies
		}
	}
	decisions := sr.m.Stats().Dispatches - first
	if c, ok := sr.m.Scheduler().(interface{ CheckInvariants() error }); ok {
		if err := c.CheckInvariants(); err != nil {
			res.problem("sim: %v", err)
		}
	}
	// Conservation: every simulated CPU-second was either charged to a
	// thread or counted idle.
	service := sr.m.Stats().IdleTime
	for _, k := range sr.all {
		service += k.Thread().Service
	}
	if want := sfsched.Duration(sr.until) * simCPUs; service != want {
		res.problem("sim: charged service + idle time is %v, %d CPUs ran for %v", service, simCPUs, want)
	}
	if lag > simLagQuanta {
		res.problem("sim: a compute-bound thread is %.1f quanta from its proportional share (limit %d)", lag, simLagQuanta)
	}
	res.extra("sim.inf_lag_max_quanta", lag, "count")
	slices.Sort(sr.lat)
	res.attempted += sr.bursts
	res.add("setup_s", setup, "s")
	res.add("ops_per_s", quiet(rates, "higher"), "1/s")
	res.add("lat_p50_us", float64(percentile(sr.lat, 0.50)), "us")
	res.extra("sim.lat_p90_us", float64(percentile(sr.lat, 0.90)), "us")
	res.extra("sim.lat_p99_us", float64(percentile(sr.lat, 0.99)), "us")
	res.samples["decisions"] = decisions
	res.samples["chunks"] = int64(len(rates))
	res.samples["latencies"] = int64(len(sr.lat))
	return nil
}
