package core_test

import (
	"slices"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/readjust"
	"sfsched/internal/simtime"
)

// FuzzPickAgainstOracle drives the scheduler and the eager oracle of
// golden_test.go through a byte-derived script — arrivals, wakeups, blocks,
// weight changes, picks and charges with threads left running across
// operations — and compares every pick. The first byte chooses the world:
// 1–4 CPUs (bits 0–1), an alphabet of 16 weights instead of 7 (9 in a crowd)
// so that the class count crosses 11 ↔ 12 — the unordered class list
// against the class heap — again and again (bit 2), classes past the lane's
// floor (bit 3: 2·core.LaneFloor and up to 63 more threads of two weights
// first, quanta full or cut short as often, and a wakeup in place of every
// other weight change while a thread is parked, so that threads cross
// between each class's lane and heap, and the lane wraps, grows, splits its
// array with the heap and compacts its tombstones; the lane-* entries do all
// of it),
// a crowd of φ < 1 threads whose start tags sit a few 10⁻⁴ apart (bit 4;
// later IDs earlier, equal quanta keep them so) and a capped infeasible
// thread (bit 5). The holder of v, the pick's O(1) answer, is the wrong pick
// when it is running. The checked-in corpus (testdata/fuzz) covers every
// combination.
func FuzzPickAgainstOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip("need a world byte and a crowd byte")
		}
		mode := data[0]
		cpus := 1 + int(mode%4)
		lanes, crowd, capped := mode&8 != 0, mode&16 != 0, mode&32 != 0
		alphabet := byte(7)
		if crowd {
			alphabet = 9
		}
		if mode&4 != 0 {
			alphabet = 16
		}
		s := core.New(cpus, core.WithQuantum(20*simtime.Millisecond))
		w := newGoldenWorld(t, "fuzz-pick", s, newOracle(readjust.NewTracker(cpus, true)))
		w.check = s.CheckInvariants
		weight := func(b byte) float64 {
			if crowd {
				return float64(1+b%alphabet) / float64(alphabet+1)
			}
			return float64(1 + b%alphabet)
		}
		quantum := func(b byte) simtime.Duration {
			switch {
			case crowd:
				return 1 // equal quanta keep a φ-class's tags a few 10⁻⁴ apart
			case lanes && b%2 == 0:
				return 20 * simtime.Millisecond
			}
			return simtime.Duration(1+b%20) * simtime.Millisecond
		}
		if capped {
			w.add(w.mk(1000))
		}
		population := 64
		if lanes {
			population = 2*core.LaneFloor + int(data[1]%64)
			for i := 0; i < population; i++ {
				w.add(w.mk(weight(byte(i % 2))))
			}
			population += 16
		}
		if crowd {
			// The wakeup rule lifts a finish tag to v, so the least tag
			// enters first: the last ID.
			ids := make([]int, cpus+2+int(data[1]%8))
			for i := range ids {
				ids[i] = w.mk(weight(data[1]>>3 + byte(i%3)))
			}
			for i := len(ids) - 1; i >= 0; i-- {
				tag := float64(1000+2*(len(ids)-i)+int(data[1]>>(i%8))&1) * 1e-4
				w.sutT[ids[i]].Finish, w.oraT[ids[i]].Finish = tag, tag
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
				} else if len(w.ids) < population {
					w.add(w.mk(weight(arg)))
				}
			case 6: // a waiting thread blocks
				if len(w.ids) > 1 {
					id := w.ids[int(arg)%len(w.ids)]
					w.remove(id)
					parked = append(parked, id)
				}
			case 7: // a runnable thread, running or not, changes weight
				if lanes && len(parked) > 0 && arg%2 == 1 {
					w.add(parked[len(parked)-1])
					parked = parked[:len(parked)-1]
					break
				}
				ids := append(slices.Clone(w.ids), running...)
				if id := ids[int(arg)%len(ids)]; id != 0 {
					w.setWeight(id, weight(op/8))
				}
			}
		}
	})
}
