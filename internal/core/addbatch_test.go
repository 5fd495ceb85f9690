// TestAddBatchEquivalence locks in the claim AddBatch's doc comment makes:
// admitting a wakeup batch with one deferred readjustment pass leaves the
// scheduler in exactly the state N sequential Adds would have, across the
// float and fixed-point variants and for the same kernel over
// hier's class table (where the batch must also land every thread in its
// class). Two schedulers replay an
// identical pre-history (admissions, pick/charge cycles, blocks), then one
// admits the wakeup batch thread by thread while the other uses AddBatch;
// every per-thread tag and the subsequent pick sequence must match.

package core_test

import (
	"errors"
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/hier"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// batchSched is what the equivalence test drives: *core.SFS and *hier.Hier.
type batchSched interface {
	sched.Scheduler
	sched.BatchAdder
	CheckInvariants() error
}

func TestAddBatchEquivalence(t *testing.T) {
	const p = 2
	flat := func(opts ...core.Option) func([]*sched.Thread) batchSched {
		return func([]*sched.Thread) batchSched { return core.New(p, opts...) }
	}
	// Three classes 3:2:1 plus the default class; thread i goes to class
	// i mod 4, so the wakeup batch below spans all four.
	classed := func(ts []*sched.Thread) batchSched {
		h := hier.New(p, 0)
		classes := []*hier.Class{h.MustAddClass("a", 3), h.MustAddClass("b", 2), h.MustAddClass("c", 1)}
		for i, th := range ts {
			if i%4 < len(classes) {
				h.Assign(th, classes[i%4])
			}
		}
		return h
	}
	variants := []struct {
		name string
		new  func(threads []*sched.Thread) batchSched
	}{
		{"exact", flat()},
		{"fixed", flat(core.WithFixedPoint(4))},
		{"hier", classed},
	}
	// Weights spread over two orders of magnitude so the batch admission
	// triggers Figure-2 readjustment (φ != w) on the high-weight threads.
	weights := []float64{1, 40, 3, 1, 25, 2, 10, 1, 60, 5, 1, 8}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			q := 10 * simtime.Millisecond
			threads := make([][2]*sched.Thread, len(weights))
			var seqT, batT []*sched.Thread
			for i := range threads {
				threads[i] = [2]*sched.Thread{mkThread(i, weights[i]), mkThread(i, weights[i])}
				seqT, batT = append(seqT, threads[i][0]), append(batT, threads[i][1])
			}
			seq := v.new(seqT) // admits the batch with N Adds
			bat := v.new(batT) // admits the batch with one AddBatch

			now := simtime.Time(0)
			// step drives both schedulers through one synchronized quantum
			// and fails if their pick sequences ever diverge.
			step := func() {
				var ran [][2]*sched.Thread
				for c := 0; c < p; c++ {
					a := seq.Pick(c, now)
					b := bat.Pick(c, now)
					switch {
					case a == nil && b == nil:
						continue
					case a == nil || b == nil || a.ID != b.ID:
						t.Fatalf("pick diverged at %v cpu %d: seq=%v bat=%v", now, c, a, b)
					}
					a.CPU, b.CPU = c, c
					ran = append(ran, [2]*sched.Thread{a, b})
				}
				now = now.Add(q)
				for _, pair := range ran {
					seq.Charge(pair[0], q, now)
					bat.Charge(pair[1], q, now)
					for _, th := range pair {
						th.LastCPU = th.CPU
						th.CPU = sched.NoCPU
					}
				}
			}
			add := func(i int) {
				if err := seq.Add(threads[i][0], now); err != nil {
					t.Fatal(err)
				}
				if err := bat.Add(threads[i][1], now); err != nil {
					t.Fatal(err)
				}
			}
			remove := func(i int) {
				if err := seq.Remove(threads[i][0], now); err != nil {
					t.Fatal(err)
				}
				if err := bat.Remove(threads[i][1], now); err != nil {
					t.Fatal(err)
				}
			}

			// Pre-history: admit 0..7, run, block 2 and 5 (2 with service
			// behind it so its wakeup takes S = F; 5 early enough that the
			// advancing v overtakes it and its wakeup takes S = v), run on.
			for i := 0; i < 8; i++ {
				add(i)
			}
			for k := 0; k < 30; k++ {
				step()
			}
			remove(5)
			for k := 0; k < 30; k++ {
				step()
			}
			remove(2)
			for k := 0; k < 40; k++ {
				step()
			}

			// The wakeup batch: two re-admissions plus four fresh threads,
			// including weight 60 — heavy enough to re-trigger readjustment.
			batch := []int{2, 5, 8, 9, 10, 11}
			for _, i := range batch {
				if err := seq.Add(threads[i][0], now); err != nil {
					t.Fatal(err)
				}
			}
			bs := make([]*sched.Thread, len(batch))
			for j, i := range batch {
				bs[j] = threads[i][1]
			}
			if err := bat.AddBatch(bs, now); err != nil {
				t.Fatal(err)
			}

			// Post-batch state must match field for field...
			for i := range threads {
				a, b := threads[i][0], threads[i][1]
				if a.Start != b.Start || a.Finish != b.Finish ||
					a.Phi != b.Phi ||
					a.FxStart != b.FxStart || a.FxFinish != b.FxFinish || a.FxShift != b.FxShift {
					t.Fatalf("thread %d diverged after batch:\n seq: S=%g F=%g φ=%g fx=(%d,%d,%d)\n bat: S=%g F=%g φ=%g fx=(%d,%d,%d)",
						i,
						a.Start, a.Finish, a.Phi, a.FxStart, a.FxFinish, a.FxShift,
						b.Start, b.Finish, b.Phi, b.FxStart, b.FxFinish, b.FxShift)
				}
			}
			// ...and so must everything the tags feed: the pick order from
			// here on, and both schedulers' internal invariants (for hier
			// these include every runnable thread sitting in the class its
			// assignment names).
			for k := 0; k < 60; k++ {
				step()
			}
			if sh, ok := seq.(*hier.Hier); ok {
				sc, bc := sh.Classes(), bat.(*hier.Hier).Classes()
				for i := range sc {
					if sc[i].Rate() != bc[i].Rate() || sc[i].Service() != bc[i].Service() || sc[i].Service() == 0 {
						t.Fatalf("class %s: seq rate %g service %g, bat rate %g service %g (want equal, service > 0)",
							sc[i].Name(), sc[i].Rate(), sc[i].Service(), bc[i].Rate(), bc[i].Service())
					}
				}
			}
			if err := seq.CheckInvariants(); err != nil {
				t.Fatalf("sequential scheduler: %v", err)
			}
			if err := bat.CheckInvariants(); err != nil {
				t.Fatalf("batch scheduler: %v", err)
			}
		})
	}
}

// TestAddBatchValidation pins the all-or-nothing contract: a batch with a
// duplicate or an already-managed thread is rejected up front and leaves the
// runnable set untouched.
func TestAddBatchValidation(t *testing.T) {
	s := core.New(2)
	managed := mkThread(1, 1)
	if err := s.Add(managed, 0); err != nil {
		t.Fatal(err)
	}
	fresh := mkThread(2, 1)
	dup := mkThread(3, 1)

	if err := s.AddBatch([]*sched.Thread{fresh, managed}, 0); !errors.Is(err, sched.ErrAlreadyManaged) {
		t.Fatalf("already-managed batch: err = %v, want ErrAlreadyManaged", err)
	}
	if err := s.AddBatch([]*sched.Thread{fresh, dup, dup}, 0); !errors.Is(err, sched.ErrAlreadyManaged) {
		t.Fatalf("duplicate batch: err = %v, want ErrAlreadyManaged", err)
	}
	if err := s.AddBatch([]*sched.Thread{fresh, mkThread(4, -1)}, 0); !errors.Is(err, sched.ErrBadWeight) {
		t.Fatalf("bad-weight batch: err = %v, want ErrBadWeight", err)
	}
	// None of the rejected batches may have leaked a thread in: only the
	// originally managed thread is runnable.
	if got := s.Pick(0, 0); got != managed {
		t.Fatalf("Pick = %v, want the pre-existing thread", got)
	}
	managed.CPU = 0
	if got := s.Pick(1, 0); got != nil {
		t.Fatalf("second Pick = %v, want nil (rejected batches must not leak threads)", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
