package main

import (
	"math"
	"slices"
)

// median returns the middle value, or the mean of the two middle values;
// NaN for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation at rank
// q*(n+1), clamped to the samples: for quartiles this is Python's
// statistics.quantiles(xs, n=4) with its default exclusive method.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := min(max(q*float64(n+1), 1), float64(n))
	i := int(pos)
	if i >= n {
		return s[n-1]
	}
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

// quartiles returns the first and third quartiles.
func quartiles(xs []float64) (q1, q3 float64) { return quantile(xs, 0.25), quantile(xs, 0.75) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailQuantile is the highest quantile of a sample set that at least
// tailBeyond samples lie beyond, with the sample count it rests on.
type tailQuantile struct {
	q     float64 // 0 when fewer than 2*tailBeyond samples: value is the maximum
	value float64
	n     int
}

const tailBeyond = 10

var tailLadder = []float64{0.999, 0.99, 0.9, 0.75, 0.5}

func tail(xs []float64) tailQuantile {
	t := tailQuantile{n: len(xs)}
	for _, q := range tailLadder {
		if float64(len(xs))*(1-q) >= tailBeyond-1e-9 { // 1-q is inexact

			t.q, t.value = q, quantile(xs, q)
			return t
		}
	}
	if len(xs) > 0 {
		t.value = slices.Max(xs)
	}
	return t
}

// worse returns by what share b is worse than a: positive when b is
// worse, in the metric's direction.
func worse(a, b float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return (b - a) / a
	}
	return (a - b) / a
}

// agreement is the A/A verdict for one metric: two sets of runs of the
// same code agree when both spreads and the drift of the second median
// from the first stay within the metric's bound. Steady asks more: both
// spreads below a third of the bound.
type agreement struct {
	spreadA, spreadB, drift float64
	agree, steady           bool
}

func agreeAA(a, b []float64, bound float64, lowerIsBetter bool) agreement {
	g := agreement{spreadA: spread(a), spreadB: spread(b), drift: worse(median(a), median(b), lowerIsBetter)}
	g.agree = g.spreadA <= bound && g.spreadB <= bound && g.drift <= bound
	g.steady = g.agree && g.spreadA < bound/3 && g.spreadB < bound/3
	return g
}

// Verdicts of an A/B comparison.
const (
	improved   = "improved"
	notWorse   = "not-worse"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// abResult is the A/B verdict for one metric, parent runs against change
// runs paired in order.
type abResult struct {
	verdict    string
	wins       int // pairs the change won; ties count for neither side
	pairs      int
	gap        float64 // change median better than parent median by this much
	parentIQR  float64
	worseShare float64
}

// compareAB applies the benchmark's rule for a claimed gain: the change
// wins at least nine tenths of the pairs and its median beats the
// parent's by more than the parent's interquartile range. Otherwise the
// change must not be worse than the parent by more than bound; when
// either side's spread exceeds the bound that cannot be told, and the
// metric is unresolved unless every change run beats every parent run.
func compareAB(parent, change []float64, bound float64, lowerIsBetter bool) abResult {
	better := func(x, y float64) bool { return (lowerIsBetter && x < y) || (!lowerIsBetter && x > y) }
	r := abResult{pairs: min(len(parent), len(change))}
	for i := 0; i < r.pairs; i++ {
		if better(change[i], parent[i]) {
			r.wins++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	r.parentIQR = q3 - q1
	r.gap = -worse(pm, cm, lowerIsBetter) * pm
	r.worseShare = worse(pm, cm, lowerIsBetter)
	switch {
	case r.pairs > 0 && float64(r.wins) >= 0.9*float64(r.pairs) && r.gap > r.parentIQR:
		r.verdict = improved
	case spread(parent) > bound || spread(change) > bound:
		r.verdict = unresolved
		// The change's worst run against the parent's best.
		if better(extreme(change, !lowerIsBetter), extreme(parent, lowerIsBetter)) {
			r.verdict = notWorse
		}
	case r.worseShare > bound:
		r.verdict = regressed
	default:
		r.verdict = notWorse
	}
	return r
}

// extreme returns the lowest sample when low is true, else the highest.
func extreme(xs []float64, low bool) float64 {
	if low {
		return slices.Min(xs)
	}
	return slices.Max(xs)
}
