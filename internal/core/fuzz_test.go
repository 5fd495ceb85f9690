package core_test

// Fuzzing of fixed-point tag wraparound: two fixed-point SFS instances run
// the same byte-derived workload script, one with a tiny rebase threshold
// (tags wrap and rebase every few charges) and one with the default 1<<53
// threshold (never rebases within a script). Rebasing subtracts the minimum
// start tag from every tag and the vRef epoch, so all differences — the only
// inputs to scheduling decisions — are preserved and the two pick sequences
// must match bit for bit. The goldenWorld driver from golden_test.go does
// the mirrored bookkeeping and the pick comparison.

import (
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/fixedpoint"
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
