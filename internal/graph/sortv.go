package graph

import (
	"math/bits"
	"slices"
)

// Allocation-free sorting for neighbor segments. adjFromEdges sorts one
// segment per vertex — millions of tiny slices per build — and
// sort.Slice charges every one of them a closure allocation, an
// interface dispatch per comparison, and a reflect-based swapper. A
// hand-rolled sort over the concrete []V type removes all three, which
// is what lets the build loops join the escape-free //popt:hot baseline.

// insertionCut is the segment length below which insertion sort beats
// partitioning. Generated graphs have single-digit average degrees, so
// the overwhelming majority of segments never partition at all.
const insertionCut = 24

// SortV sorts a in ascending order in place without allocating:
// insertion sort for short segments, median-of-three Hoare quicksort
// (recursing on the smaller half, so stack depth is O(log n)) above
// insertionCut. It is the build-path replacement for
// sort.Slice(a, func(i, j int) bool { return a[i] < a[j] }).
//
// Median-of-three has quadratic inputs — a hub line of one large
// element before a long sorted run loses only a few elements per
// partition — so the partitioning runs on a budget of 2*log2(n) levels
// and hands whatever is still unsorted to slices.Sort (pattern-defeating
// quicksort, O(n log n) on every input) when the budget runs out.
func SortV(a []V) { sortV(a, 2*bits.Len(uint(len(a)))) }

// sortV is SortV with depth partition levels left.
//
//popt:hot
func sortV(a []V, depth int) {
	for len(a) > insertionCut {
		if depth == 0 {
			slices.Sort(a)
			return
		}
		depth--
		j := hoareV(a)
		if j+1 < len(a)-(j+1) {
			sortV(a[:j+1], depth)
			a = a[j+1:]
		} else {
			sortV(a[j+1:], depth)
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// hoareV partitions a around a median-of-three pivot and returns j such
// that every element of a[:j+1] is <= every element of a[j+1:], with
// j < len(a)-1 so both sides make progress. Hoare's scheme (rather than
// Lomuto's) keeps duplicate-heavy segments — hub neighbor lists before
// dedup — near the balanced split instead of degenerating quadratic.
//
//popt:hot
func hoareV(a []V) int {
	mid, hi := len(a)/2, len(a)-1
	if a[mid] < a[0] {
		a[mid], a[0] = a[0], a[mid]
	}
	if a[hi] < a[0] {
		a[hi], a[0] = a[0], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	a[0], a[mid] = a[mid], a[0]
	p := a[0]
	i, j := -1, len(a)
	for {
		for {
			j--
			if a[j] <= p {
				break
			}
		}
		for {
			i++
			if a[i] >= p {
				break
			}
		}
		if i >= j {
			return j
		}
		a[i], a[j] = a[j], a[i]
	}
}

// dedupV compacts a sorted slice in place, keeping the first of each run
// of equal values, and returns the unique count. a[:count] holds the
// sorted unique values afterwards.
//
//popt:hot
func dedupV(a []V) int {
	if len(a) == 0 {
		return 0
	}
	w := 1
	for i := 1; i < len(a); i++ {
		if a[i] != a[w-1] {
			a[w] = a[i]
			w++
		}
	}
	return w
}
