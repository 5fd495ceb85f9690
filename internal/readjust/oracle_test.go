package readjust

// The references the tests compare the one implementation against: Figure 2
// as the paper writes it (a recursion that sums the remaining weights afresh
// at every level), the count of the weights it caps, Equation 1's
// feasibility test and the allocating form of Filler.Fill.

import "sort"

// IsFeasibleSorted reports whether the descending-sorted weight slice w
// satisfies the feasibility constraint (Equation 1) on p processors.
// Only the heaviest thread can be the worst offender, so the check is O(n)
// for the sum and O(1) for the test.
func IsFeasibleSorted(w []float64, p int) bool {
	n := len(w)
	if n == 0 || p <= 1 {
		return true
	}
	if n <= p {
		// Feasible only if all requested rates can be honoured with one
		// processor each, i.e. all weights equal (each fraction is 1/n
		// of delivered bandwidth). Unequal weights cannot be honoured.
		for i := 1; i < n; i++ {
			if w[i] != w[0] {
				return false
			}
		}
		return true
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	return w[0]*float64(p) <= sum
}

// IsFeasible reports whether the (unsorted) weights satisfy Equation 1.
func IsFeasible(weights []float64, p int) bool {
	w := append([]float64(nil), weights...)
	sort.Sort(sort.Reverse(sort.Float64Slice(w)))
	return IsFeasibleSorted(w, p)
}

// SortedDesc readjusts, in place, a weight slice sorted in descending order;
// this is the exact recursive algorithm of Figure 2 plus the n<=p
// convention. It returns the number of weights that were modified.
func SortedDesc(w []float64, p int) int {
	validate(w, p)
	return recurse(w, p)
}

// recurse is Figure 2: if the heaviest remaining thread violates the
// feasibility constraint for the remaining processors, first fix the rest
// on p-1 processors, then cap this thread so that its requested share of
// the remaining bandwidth is exactly 1/p.
func recurse(w []float64, p int) int {
	n := len(w)
	if n == 0 {
		return 0
	}
	if p == 1 {
		// Uniprocessor tail: every assignment is feasible.
		return 0
	}
	if n <= p {
		// Each thread receives a full processor; rates are equal, so
		// instantaneous weights must be equal. Use the group minimum.
		min := w[n-1] // sorted descending
		changed := 0
		for i := range w {
			if w[i] != min {
				w[i] = min
				changed++
			}
		}
		return changed
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if w[0]*float64(p) <= sum {
		return 0 // heaviest is feasible; all lighter ones are too
	}
	changed := recurse(w[1:], p-1)
	var rest float64
	for _, x := range w[1:] {
		rest += x
	}
	w[0] = rest / float64(p-1)
	return changed + 1
}

// figure2 is Weights through the recursion: the readjusted copy of weights
// (any order, order preserved) for p processors.
func figure2(weights []float64, p int) []float64 {
	validate(weights, p)
	n := len(weights)
	out := append([]float64(nil), weights...)
	if n == 0 || p == 1 {
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	sorted := make([]float64, n)
	for i, j := range idx {
		sorted[i] = weights[j]
	}
	SortedDesc(sorted, p)
	for i, j := range idx {
		out[j] = sorted[i]
	}
	return out
}

// NumCapped returns how many of the descending-sorted weights violate the
// feasibility constraint, without modifying the slice. For n > p this is at
// most p-1 (the paper's complexity argument).
func NumCapped(w []float64, p int) int {
	validate(w, p)
	n := len(w)
	if p == 1 || n == 0 {
		return 0
	}
	if n <= p {
		min := w[n-1]
		c := 0
		for _, x := range w {
			if x != min {
				c++
			}
		}
		return c
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	c := 0
	for i := 0; i < n && p-i > 1; i++ {
		if w[i]*float64(p-i) > sum {
			c++
			sum -= w[i]
			continue
		}
		break
	}
	return c
}

// WaterFill is Filler.Fill with a fresh Filler and output slice.
func WaterFill(weights, caps []float64, capacity float64) []float64 {
	var f Filler
	return f.Fill(nil, weights, caps, capacity)
}
