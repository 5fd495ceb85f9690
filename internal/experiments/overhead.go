package experiments

import (
	"fmt"
	"time"

	"sfsched/internal/metrics"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/timeshare"
)

// This file regenerates the scheduling-overhead results: Table 1 (lmbench)
// and Figure 7 (context-switch cost vs. number of processes).
//
// Substitution note (see DESIGN.md §2): lmbench measures kernel context
// switches on a 500 MHz Pentium III; we measure the same quantity our
// schedulers control — the per-switch bookkeeping of charge + pick — as Go
// wall-clock nanoseconds, with an optional working-set touch reproducing
// lmbench's cache-footprint parameter. Rows of Table 1 that do not involve
// the scheduler (syscall, exec) are identical under both schedulers in the
// paper and are identical here by construction.

// SwitchCost measures the mean cost of one scheduler round trip — charge the
// outgoing thread, pick the next, touch its working set — with nproc
// runnable threads of wsKB KiB each, mimicking lmbench's
// "lat_ctx -s <size> <nproc>".
func SwitchCost(s sched.Scheduler, nproc, wsKB, iters int) time.Duration {
	if nproc < 2 {
		nproc = 2
	}
	now := simtime.Time(0)
	threads := make([]*sched.Thread, nproc)
	sets := make([][]byte, nproc)
	for i := range threads {
		threads[i] = &sched.Thread{
			ID:      i + 1,
			Weight:  1,
			Phi:     1,
			CPU:     sched.NoCPU,
			LastCPU: sched.NoCPU,
			State:   sched.Runnable,
		}
		if err := s.Add(threads[i], now); err != nil {
			panic(err)
		}
		sets[i] = make([]byte, wsKB*1024)
	}
	cur := s.Pick(0, now)
	cur.CPU = 0
	// The charge per hop rotates fair-queueing tags and depletes
	// time-sharing counters so that both schedulers actually rotate
	// through the process ring, as lmbench's token-passing does.
	const hop = 10 * simtime.Millisecond
	start := time.Now()
	for i := 0; i < iters; i++ {
		now = now.Add(hop)
		s.Charge(cur, hop, now)
		cur.LastCPU = 0
		cur.CPU = sched.NoCPU
		next := s.Pick(0, now)
		if next == nil {
			panic("experiments: scheduler went idle mid-benchmark")
		}
		next.CPU = 0
		ws := sets[next.ID-1]
		for j := 0; j < len(ws); j += 64 {
			ws[j]++
		}
		cur = next
	}
	elapsed := time.Since(start)
	return elapsed / time.Duration(iters)
}

// Table1Row is one lmbench test row.
type Table1Row struct {
	Test string
	TS   time.Duration
	SFS  time.Duration
	Note string
}

// Table1Result carries the lmbench-style overhead table.
type Table1Result struct {
	Iters int
	Rows  []Table1Row
}

// Table1 regenerates the paper's Table 1 with iters hops per measurement
// (20000 is comfortable; tests use fewer).
func Table1(iters int) Table1Result {
	if iters <= 0 {
		iters = 20000
	}
	res := Table1Result{Iters: iters}
	mkTS := func() sched.Scheduler { return MustScheduler(Timeshare, 1, sched.DefaultQuantum) }
	mkSFS := func() sched.Scheduler { return MustScheduler(SFS, 1, sched.DefaultQuantum) }

	// Scheduler-independent rows: in the paper these are equal under both
	// schedulers; here the scheduler plays no part at all.
	res.Rows = append(res.Rows,
		Table1Row{Test: "syscall overhead", Note: "scheduler-independent (equal by construction)"},
		Table1Row{Test: "exec()", Note: "scheduler-independent (equal by construction)"},
	)
	// fork(): thread creation visible to the scheduler = add + remove.
	res.Rows = append(res.Rows, Table1Row{
		Test: "fork() (sched add+remove)",
		TS:   forkCost(mkTS(), iters),
		SFS:  forkCost(mkSFS(), iters),
	})
	for _, c := range []struct {
		nproc, wsKB int
	}{{2, 0}, {8, 16}, {16, 64}} {
		res.Rows = append(res.Rows, Table1Row{
			Test: fmt.Sprintf("Context switch (%d proc/ %dKB)", c.nproc, c.wsKB),
			TS:   SwitchCost(mkTS(), c.nproc, c.wsKB, iters),
			SFS:  SwitchCost(mkSFS(), c.nproc, c.wsKB, iters),
		})
	}
	return res
}

// forkCost measures the scheduler-visible part of process creation and
// teardown with a background population of 8 threads.
func forkCost(s sched.Scheduler, iters int) time.Duration {
	now := simtime.Time(0)
	for i := 0; i < 8; i++ {
		t := &sched.Thread{ID: i + 1, Weight: 1, Phi: 1, CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
		if err := s.Add(t, now); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		t := &sched.Thread{ID: 1000 + i, Weight: 1, Phi: 1, CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
		if err := s.Add(t, now); err != nil {
			panic(err)
		}
		t.State = sched.Exited
		if err := s.Remove(t, now); err != nil {
			panic(err)
		}
	}
	return time.Since(start) / time.Duration(iters)
}

// Render formats the result like the paper's Table 1.
func (r Table1Result) Render() string {
	t := metrics.Table{
		Title:   fmt.Sprintf("Table 1: scheduling overheads (ns/op, %d iters)", r.Iters),
		Headers: []string{"Test", "Time sharing", "SFS", "note"},
	}
	for _, row := range r.Rows {
		ts, sfs := "=", "="
		if row.TS != 0 || row.SFS != 0 {
			ts = fmt.Sprintf("%dns", row.TS.Nanoseconds())
			sfs = fmt.Sprintf("%dns", row.SFS.Nanoseconds())
		}
		t.AddRow(row.Test, ts, sfs, row.Note)
	}
	return t.String()
}

// Fig7Params configures the switch-cost growth experiment (Figure 7):
// 0 KB processes, process counts from 2 to 50.
type Fig7Params struct {
	Procs []int
	Iters int
}

// Fig7Defaults returns the paper's Figure 7 sweep.
func Fig7Defaults() Fig7Params {
	return Fig7Params{
		Procs: []int{2, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50},
		Iters: 20000,
	}
}

// Fig7Result holds per-process-count switch costs for both schedulers, and
// the run-queue entries time sharing's schedule() scan visits per switch —
// the count its growing cost comes from, which no busy host blurs.
type Fig7Result struct {
	Params Fig7Params
	TS     []time.Duration
	TSScan []float64
	SFS    []time.Duration
}

// Fig7 runs the switch-cost sweep.
func Fig7(p Fig7Params) Fig7Result {
	res := Fig7Result{Params: p}
	for _, n := range p.Procs {
		ts := timeshare.New(1)
		res.TS = append(res.TS, SwitchCost(ts, n, 0, p.Iters))
		// SwitchCost picks once before its hops and once per hop.
		res.TSScan = append(res.TSScan, float64(ts.Visited())/float64(p.Iters+1))
		res.SFS = append(res.SFS, SwitchCost(MustScheduler(SFS, 1, sched.DefaultQuantum), n, 0, p.Iters))
	}
	return res
}

// Render formats the result as the Figure 7 series.
func (r Fig7Result) Render() string {
	t := metrics.Table{
		Title:   "Figure 7: context switch cost vs. number of 0KB processes (ns/switch)",
		Headers: []string{"processes", "timeshare", "SFS", "timeshare scan (threads/switch)"},
	}
	for i, n := range r.Params.Procs {
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", r.TS[i].Nanoseconds()),
			fmt.Sprintf("%d", r.SFS[i].Nanoseconds()),
			fmt.Sprintf("%g", r.TSScan[i]))
	}
	return t.String()
}
