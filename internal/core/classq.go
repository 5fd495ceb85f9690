package core

import (
	"fmt"
	"math"

	"sfsched/internal/runqueue"
	"sfsched/internal/sched"
)

// The kernel's queues: the start-tag and surplus queues of §3.1 as one
// structure, grouped by instantaneous weight. Among threads with the same φ
// the surplus φ·(S − v) is a non-decreasing function of the start tag S for
// every v — the observation behind the §2.3 reduction of SFS to SFQ on a
// uniprocessor — so the order inside a φ-class is the order of start tags and
// no change of virtual time disturbs it: one heap per class serves both
// queues. Only the order *between* classes depends on v, and that is the part
// kept lazily: one stored surplus per class, against the vRef epoch. And
// §2.3 needs only v = min S from the start-tag queue, which is the least of
// the class heads' tags: a second class-level heap, re-keyed wherever the
// first is.

// class is one φ-class: the runnable threads whose instantaneous weight is
// phi, in a min-heap on (start tag, weight desc, ID). In byClass it is keyed
// by its head's stored surplus, then by the head's weight (descending) and ID,
// mirroring the thread-level tie-break; in byHead by its head's start tag.
// What a pick needs to turn a class down — φ, the head's tag, the key — sits
// here, so a losing class costs the class struct and not its heap or its head.
type class struct {
	phi       float64
	threads   *runqueue.Heap[*sched.Thread]
	head      *sched.Thread // threads' minimum
	headStart float64       // head's start key, threads.KeyAt(0)
	key       float64       // head's surplus against the vRef epoch
	slot      int32         // index in SFS.classes; Thread.PhiClass holds slot+1
	rq, hq    runqueue.Handle[*class]
}

// RunqueueHandle implements runqueue.Indexed; a class sits in byClass
// (SlotSurplus) and byHead (SlotPrimary).
func (c *class) RunqueueHandle(s runqueue.Slot) *runqueue.Handle[*class] {
	if s == runqueue.SlotPrimary {
		return &c.hq
	}
	return &c.rq
}

func classLess(a, b *class) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return heavierOrOlder(a.head, b.head)
}

// heavierOrOlder is the tie-break every surplus comparison ends in:
// descending weight, then ascending ID — SFQ's tie order, so that the
// uniprocessor reduction (SFS ≡ SFQ, §2.3) holds decision for decision.
func heavierOrOlder(a, b *sched.Thread) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return a.ID < b.ID
}

// inClassLess orders the threads of one class by the tag their surplus is
// computed from.
func (s *SFS) inClassLess(a, b *sched.Thread) bool {
	if s.fixed {
		if a.FxStart != b.FxStart {
			return a.FxStart < b.FxStart
		}
	} else if a.Start != b.Start {
		return a.Start < b.Start
	}
	return heavierOrOlder(a, b)
}

// startKey is the cached heap key inClassLess is monotone in.
func (s *SFS) startKey(t *sched.Thread) float64 {
	if s.fixed {
		return float64(t.FxStart)
	}
	return t.Start
}

// tinyTag bounds the operands for which a surplus φ·(S − v) with S > v could
// underflow to zero: with every tag zero or at least tinyTag, unequal tags
// differ by at least tinyTag·2⁻⁵², and the product with a φ of at least
// tinyTag stays a positive number.
const tinyTag = 0x1p-500

// classFor returns the class of weight phi, creating it — out of an emptied
// class's storage when there is one — if no runnable thread has that weight.
func (s *SFS) classFor(phi float64) *class {
	if c := s.classOf[phi]; c != nil {
		return c
	}
	var c *class
	if n := len(s.freeClasses); n > 0 {
		c, s.freeClasses = s.freeClasses[n-1], s.freeClasses[:n-1]
	} else {
		c = &class{slot: int32(len(s.classes)),
			threads: runqueue.NewKeyedHeap(runqueue.SlotSurplus, s.startKey, s.inClassLess)}
		s.classes = append(s.classes, c)
	}
	c.phi = phi
	s.classOf[phi] = c
	if s.fixed {
		// One tag unit of lead is the least there is.
		if s.scale.MulValue(s.scale.FromFloat(phi), 1) == 0 {
			s.zeroTies = true
		}
	} else if phi < tinyTag {
		s.zeroTies = true
	}
	return c
}

// join puts t, tagged and carrying its φ, into the class of that φ.
func (s *SFS) join(t *sched.Thread) {
	c := s.classFor(t.Phi)
	t.PhiClass = c.slot + 1
	c.threads.Push(t)
	if h, _ := c.threads.Min(); h == t {
		s.rekey(c)
	}
}

// leave takes t out of its class. A class that empties leaves the queue at
// once: an empty class has no key, and φ values come and go with every
// arrival next to an infeasible thread.
func (s *SFS) leave(t *sched.Thread) {
	c := s.classes[t.PhiClass-1]
	t.PhiClass = 0
	c.threads.Remove(t)
	switch {
	case c.threads.Len() == 0:
		s.byClass.Remove(c)
		s.byHead.Remove(c)
		delete(s.classOf, c.phi)
		c.head = nil
		s.freeClasses = append(s.freeClasses, c)
	case c.head == t:
		s.rekey(c)
	}
}

// rekey restores c's position in the two class-level heaps after its head
// changed (another thread, or the same thread with another tag).
func (s *SFS) rekey(c *class) {
	c.head, c.headStart = c.threads.At(0), c.threads.KeyAt(0)
	c.key = s.keyOf(c)
	if !s.byClass.Fix(c) {
		s.byClass.Push(c)
		s.byHead.Push(c)
		return
	}
	s.byHead.Fix(c)
}

// scanBase is the number of classes a pick may always visit without asking
// for a refresh.
const scanBase = 8

// freeScan is the number of classes a pick over C of them may visit without
// asking for a refresh: it grows with √C so that the refresh cost and the
// worst-case pick scan balance.
func freeScan(classes int) int { return scanBase + int(math.Sqrt(float64(classes))) }

// keySurplus returns, in float arithmetic, the surplus against ref of the
// thread of c whose cached start key is key — bit for bit surplusAt of that
// thread (checkClasses: t.Phi == c.phi; Heap.Validate: key == t.Start), without
// touching it. Fixed point needs the thread's integer tags.
func keySurplus(c *class, key, ref float64) float64 { return c.phi * (key - ref) }

// keyOf returns c's head's surplus against the vRef epoch.
func (s *SFS) keyOf(c *class) float64 {
	if s.fixed {
		return s.surplusAt(c.head, s.vRef, s.fxVRef)
	}
	return keySurplus(c, c.headStart, s.vRef)
}

// refreshIsCheap reports whether the keys have drifted while there are no more
// classes than any pick may visit: no pick could ever ask for the refresh, and
// re-keying them costs less than the walk over all of them that every pick
// under drift is. Charge, Remove and enqueue — where v moves — refresh on it;
// with more classes the keys stay lazy until a pick reports the drift expensive.
func (s *SFS) refreshIsCheap() bool {
	return !s.noDrift() && s.byClass.Len() <= freeScan(s.byClass.Len())
}

// refreshKeys snaps vRef to the current virtual time and re-keys every class
// — C heads, not n threads.
func (s *SFS) refreshKeys() {
	s.vRef, s.fxVRef = s.v, s.fxV
	s.needRefresh = false
	n := s.byClass.Len()
	s.scanLimit = freeScan(n)
	for i := 0; i < n; i++ {
		c := s.byClass.At(i)
		c.key = s.keyOf(c)
	}
	s.byClass.Init()
	s.stats.SurplusSweeps++
}

// tiesAbove reports whether a thread of t's class with a larger start tag
// than t could have t's fresh surplus: surplus is monotone in the tag, so it
// could exactly when the next representable tag still yields fresh. Rounding
// (float) and truncation (fixed point, φ < 1) both make that possible.
func (s *SFS) tiesAbove(t *sched.Thread, fresh float64) bool {
	if fresh == 0 && !s.zeroTies {
		return false // zero surplus means S == v here
	}
	if s.fixed {
		return s.scale.Float(s.scale.MulValue(t.FxPhi, t.FxStart+1-s.fxV)) == fresh
	}
	return t.Phi*(math.Nextafter(t.Start, math.Inf(1))-s.v) == fresh
}

// pickExact returns the non-running thread that is least under (fresh
// surplus, weight desc, ID) by two nested pruned walks: over the class-level
// heap, and inside each class it admits over the class's thread heap.
//
// Class level. Keys are relative to vRef; since every φ is at most the
// source's MaxPhi, a fresh surplus can sit below its stored value by at most
// φ_max·(v−vRef), so a subtree of classes whose root's key exceeds the
// incumbent by more than that bound (plus the affinity margin, within which
// the extension may promote a thread that last ran on this CPU) cannot hold
// the answer. A small slack keeps the cutoff conservative against float
// rounding and fixed-point truncation; visiting a class too many is
// harmless, pruning one too many would change the trace. With zero drift the
// keys ARE the heads' fresh surpluses and the cutoff is the incumbent's
// surplus itself; a crowd of classes that tie at zero (every ramp-up: all
// tags equal v) is cut by order instead, because there the class-level order
// is the order of their candidates.
//
// Inside a class fresh surpluses are exact and non-decreasing along every
// heap path, so the walk descends below a running thread, and below a
// non-running one only while a larger tag could still tie (tiesAbove) — a
// crowd of equal tags is never walked: its head is the heap's head.
func (s *SFS) pickExact(cpu int) *sched.Thread {
	if s.byClass.Len() == 0 {
		return nil
	}
	margin := 0.0
	affinity := s.affinityMargin >= 0
	if affinity {
		margin = s.affinityMargin
	}
	noDrift := s.noDrift()
	var bound, slack float64
	if !noDrift {
		bound, slack = s.driftBound(s.weights.MaxPhi())
	}
	// ordered: keys are fresh and nothing but the order decides.
	ordered := noDrift && !affinity
	var best, bestAff *sched.Thread
	var bestS, bestAffS float64
	reach, cut := math.Inf(1), math.Inf(1) // in-class and class-level cutoffs
	scanned := 0
	classes, threads := append(s.classStack[:0], 0), s.threadStack
	for len(classes) > 0 {
		i := int(classes[len(classes)-1])
		classes = classes[:len(classes)-1]
		c := s.byClass.At(i)
		if c.key > cut {
			continue
		}
		if ordered && best != nil && bestS == 0 && !s.zeroTies && !heavierOrOlder(c.head, best) {
			// c and every class below it hold no zero-surplus thread that
			// precedes their own head, and the heads do not precede best.
			continue
		}
		scanned++
		threads = threads[:0]
		if s.fixed || keySurplus(c, c.headStart, s.v) <= reach {
			threads = append(threads, 0)
		}
		for len(threads) > 0 {
			j := int(threads[len(threads)-1])
			threads = threads[:len(threads)-1]
			// Judged on the heap's own array before the thread is touched.
			fresh := keySurplus(c, c.threads.KeyAt(j), s.v)
			if s.fixed {
				fresh = s.FreshSurplus(c.threads.At(j))
			}
			if fresh > reach {
				continue
			}
			t := c.threads.At(j)
			if !t.Running() {
				if betterPick(fresh, t, bestS, best) {
					best, bestS = t, fresh
					if ordered {
						reach, cut = bestS, bestS
					} else {
						reach = bestS + margin + 1e-12*math.Abs(bestS)
						cut = reach + bound + slack
					}
				}
				if affinity {
					if t.LastCPU == cpu && betterPick(fresh, t, bestAffS, bestAff) {
						bestAff, bestAffS = t, fresh
					}
				} else if fresh != bestS || !s.tiesAbove(t, fresh) {
					continue
				}
			}
			if l := 2*j + 1; l < c.threads.Len() {
				threads = append(threads, int32(l))
				if l+1 < c.threads.Len() {
					threads = append(threads, int32(l+1))
				}
			}
		}
		if l := 2*i + 1; l < s.byClass.Len() {
			classes = append(classes, int32(l))
			if l+1 < s.byClass.Len() {
				classes = append(classes, int32(l+1))
			}
		}
	}
	s.classStack, s.threadStack = classes, threads
	if scanned > s.scanLimit && !noDrift {
		// A refresh collapses the drift back to zero and re-enables the
		// exact cutoff; tie crowds alone don't warrant one.
		s.needRefresh = true
	}
	if affinity && bestAff != nil && best != nil && bestAffS-bestS <= margin {
		return bestAff
	}
	return best
}

// checkClasses validates the class queues: every runnable thread sits in the
// class of its current φ, no empty class is queued, both class-level heaps
// hold every class, class sizes sum to the φ source's thread count, and every
// class key equals its head's recomputed stored surplus.
func (s *SFS) checkClasses() error {
	if err := s.byClass.Validate(); err != nil {
		return err
	}
	if err := s.byHead.Validate(); err != nil {
		return err
	}
	if len(s.classOf) != s.byClass.Len() || s.byHead.Len() != s.byClass.Len() {
		return fmt.Errorf("core: %d classes indexed by φ, %d queued by surplus, %d by start tag",
			len(s.classOf), s.byClass.Len(), s.byHead.Len())
	}
	n := 0
	for i := 0; i < s.byClass.Len(); i++ {
		c := s.byClass.At(i)
		if c.threads.Len() == 0 {
			return fmt.Errorf("core: empty class φ=%g queued", c.phi)
		}
		if err := c.threads.Validate(); err != nil {
			return err
		}
		if s.classOf[c.phi] != c {
			return fmt.Errorf("core: class φ=%g is not the one indexed under its φ", c.phi)
		}
		if h, k := c.threads.At(0), c.threads.KeyAt(0); h != c.head || k != c.headStart {
			return fmt.Errorf("core: class φ=%g caches head %v at %g, heap head is %v at %g", c.phi, c.head, c.headStart, h, k)
		}
		if want := s.surplusAt(c.head, s.vRef, s.fxVRef); c.key != want {
			return fmt.Errorf("core: class φ=%g keyed %g, head %v stores %g against vRef=%g",
				c.phi, c.key, c.head, want, s.vRef)
		}
		for j := 0; j < c.threads.Len(); j++ {
			t := c.threads.At(j)
			if t.Phi != c.phi || t.PhiClass != c.slot+1 {
				return fmt.Errorf("core: %v (φ=%g, class link %d) sits in class φ=%g slot %d",
					t, t.Phi, t.PhiClass, c.phi, c.slot)
			}
		}
		n += c.threads.Len()
	}
	if n != s.weights.Len() {
		return fmt.Errorf("core: classes hold %d threads, %d runnable", n, s.weights.Len())
	}
	return nil
}
