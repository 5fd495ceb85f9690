package core_test

// Fuzzing of fixed-point tag wraparound: two fixed-point SFS instances run
// the same byte-derived workload script, one with a tiny rebase threshold
// (tags wrap and rebase every few charges) and one with the default 1<<53
// threshold (never rebases within a script). Rebasing subtracts the minimum
// start tag from every tag and the vRef epoch, so all differences — the only
// inputs to scheduling decisions — are preserved and the two pick sequences
// must match bit for bit. FuzzPickAgainstOracle fuzzes the scheduler against
// the eager oracle itself. The goldenWorld driver from golden_test.go does
// the mirrored bookkeeping and the pick comparison for both.

import (
	"slices"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/fixedpoint"
	"sfsched/internal/phi"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// fuzzRebaseThreshold forces a rebase every few charges: one 100 ms charge
// at weight 1 advances a tag by 100000 µs · 10^4 = 10^9 scaled units.
const fuzzRebaseThreshold = fixedpoint.Value(1) << 30

func FuzzFixedpointWraparound(f *testing.F) {
	f.Add([]byte{4, 9, 1, 30, 2, 0x07, 0xff, 0x0f, 0x80, 0x17, 0x40, 0x1f, 0x20})
	f.Add([]byte("\x06ABCDEFGH0123456789abcdefghijklmn"))
	f.Add([]byte{2, 1, 200, 7, 100, 7, 100, 7, 100, 7, 100, 4, 5, 5, 0, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("need a thread count, weights and ops")
		}
		nt := 2 + int(data[0]%12)
		if len(data) < 1+nt {
			t.Skip("not enough weight bytes")
		}
		const cpus = 2
		sut := core.New(cpus, core.WithFixedPoint(4), core.WithRebaseThreshold(fuzzRebaseThreshold))
		ora := core.New(cpus, core.WithFixedPoint(4))
		w := newGoldenWorld(t, "fuzz-rebase", sut, ora)
		for _, b := range data[1 : 1+nt] {
			w.add(w.mk(1 + float64(b%32)))
		}
		ops := data[1+nt:]
		if len(ops) > 800 {
			ops = ops[:800]
		}
		var parked []int // blocked threads awaiting wakeup
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			w.step = i
			switch op % 8 {
			case 4: // arrival, or wakeup of a blocked thread — a wakeup
				// whose finish tag predates a rebase exercises the tag
				// frame catch-up in Add.
				if len(parked) > 0 && arg%2 == 1 {
					w.add(parked[len(parked)-1])
					parked = parked[:len(parked)-1]
				} else if len(w.ids) < 64 {
					w.add(w.mk(1 + float64(arg%32)))
				}
			case 5: // departure (block); may wake later via case 4
				if len(w.ids) > 2 {
					id := w.ids[int(arg)%len(w.ids)]
					w.remove(id)
					parked = append(parked, id)
				}
			case 6: // setweight
				if len(w.ids) > 0 {
					w.setWeight(w.ids[int(arg)%len(w.ids)], 1+float64(op/8))
				}
			case 7: // long quantum: accelerates tag growth toward the threshold
				if id := w.pick(int(op) % cpus); id != 0 {
					w.charge(id, simtime.Duration(1+int(arg))*40*simtime.Millisecond)
				}
			default: // dispatch round with a short quantum
				if id := w.pick(int(op) % cpus); id != 0 {
					w.charge(id, simtime.Duration(1+int(arg))*simtime.Millisecond)
				}
			}
			if i%32 == 0 {
				if err := sut.CheckInvariants(); err != nil {
					t.Fatalf("op %d: rebasing scheduler invariants: %v", i, err)
				}
				if err := ora.CheckInvariants(); err != nil {
					t.Fatalf("op %d: reference scheduler invariants: %v", i, err)
				}
			}
		}
		if err := sut.CheckInvariants(); err != nil {
			t.Fatalf("final: rebasing scheduler invariants: %v", err)
		}
		if err := ora.CheckInvariants(); err != nil {
			t.Fatalf("final: reference scheduler invariants: %v", err)
		}
		if ora.Stats().Rebases != 0 {
			t.Fatalf("reference scheduler rebased %d times; threshold too low for the script",
				ora.Stats().Rebases)
		}
	})
}

// FuzzPickAgainstOracle drives the scheduler and the eager oracle of
// golden_test.go through a byte-derived script — arrivals, wakeups, blocks,
// weight changes, picks and charges with threads left running across
// operations — and compares every pick. The first byte chooses the world:
// 1–4 CPUs, float or 4-digit fixed point, the affinity extension on or off, a
// capped infeasible thread, and a crowd of φ < 1 threads whose fixed-point
// tags sit a few units apart (later IDs earlier), where a positive lead can
// truncate to zero surplus. Those are the three things that can make the
// holder of v the wrong pick: it is running, the affinity window prefers
// another thread, or another thread ties with it at zero surplus and precedes
// it. The checked-in corpus (testdata/fuzz) covers every combination.
func FuzzPickAgainstOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("need a world byte and a crowd byte")
		}
		mode := data[0]
		cpus := 1 + int(mode%4)
		digits, margin := 0, -1.0
		opts := []core.Option{core.WithQuantum(20 * simtime.Millisecond)}
		if mode&4 != 0 {
			digits = 4
			opts = append(opts, core.WithFixedPoint(digits))
		}
		if mode&8 != 0 {
			margin = 0.02
			opts = append(opts, core.WithAffinity(margin))
		}
		crowd, capped := mode&16 != 0, mode&32 != 0
		s := core.New(cpus, opts...)
		w := newGoldenWorld(t, "fuzz-pick", s, newOracle(cpus, digits, margin, phi.NewTracker(cpus, true)))
		w.check = s.CheckInvariants
		weight := func(b byte) float64 {
			if crowd {
				return float64(1+b%9) / 10
			}
			return float64(1 + b%7)
		}
		quantum := func(b byte) simtime.Duration {
			if crowd {
				return 1 // equal quanta keep a φ-class's tags a few units apart
			}
			return simtime.Duration(1+b%20) * simtime.Millisecond
		}
		if capped {
			w.add(w.mk(1000))
		}
		if crowd {
			// The wakeup rule lifts a finish tag to v, so the least tag
			// enters first: the last ID.
			ids := make([]int, cpus+2+int(data[1]%8))
			for i := range ids {
				ids[i] = w.mk(weight(data[1]>>3 + byte(i%3)))
			}
			for i := len(ids) - 1; i >= 0; i-- {
				tag := fixedpoint.Value(1000 + 2*(len(ids)-i) + int(data[1]>>(i%8))&1)
				for _, th := range []*sched.Thread{w.sutT[ids[i]], w.oraT[ids[i]]} {
					th.FxFinish, th.Finish = tag, float64(tag)*1e-4
				}
				w.add(ids[i])
			}
		}
		running := make([]int, cpus) // the thread each CPU runs, 0 when idle
		var parked []int
		ops := data[2:]
		if len(ops) > 1200 {
			ops = ops[:1200]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			w.step = i
			cpu := int(arg) % cpus
			switch op % 8 {
			case 0, 1, 2:
				if running[cpu] == 0 {
					running[cpu] = w.pick(cpu)
				}
			case 3, 4:
				if id := running[cpu]; id != 0 {
					w.charge(id, quantum(op/8))
					running[cpu] = 0
				}
			case 5: // a wakeup, or a new arrival
				if len(parked) > 0 && arg%2 == 1 {
					w.add(parked[len(parked)-1])
					parked = parked[:len(parked)-1]
				} else if len(w.ids) < 64 {
					w.add(w.mk(weight(arg)))
				}
			case 6: // a waiting thread blocks
				if len(w.ids) > 1 {
					id := w.ids[int(arg)%len(w.ids)]
					w.remove(id)
					parked = append(parked, id)
				}
			case 7: // a runnable thread, running or not, changes weight
				ids := append(slices.Clone(w.ids), running...)
				if id := ids[int(arg)%len(ids)]; id != 0 {
					w.setWeight(id, weight(op/8))
				}
			}
		}
		if s.Stats().Rebases != 0 {
			t.Fatal("rebase during the script; the oracle does not model rebasing")
		}
	})
}
