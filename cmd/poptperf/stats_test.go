package main

import (
	"math"
	"testing"
)

func seq(lo, hi float64) []float64 {
	var out []float64
	for x := lo; x <= hi; x++ {
		out = append(out, x)
	}
	return out
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{seq(1, 10), 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2, 10}, 1.25, 2.5, 8.25},
		{[]float64{5, 5}, 5, 5, 5},
		{[]float64{1.5, 2.5, 10, 11, 12.25}, 2, 10, 11.625},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(median(c.xs), c.med) || !near(q3, c.q3) {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of no samples = %v, want NaN", median(nil))
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		xs    []float64
		q, v  float64
		count int
	}{
		{seq(1, 100), 0.9, 90.9, 100},
		{seq(1, 20), 0.5, 10.5, 20},
		{seq(1, 19), 0, 19, 19}, // fewer than 10 samples beyond any quantile: the maximum
		{seq(1, 10000), 0.999, 9990.999, 10000},
	} {
		got := tail(c.xs)
		if got.q != c.q || !near(got.value, c.v) || got.n != c.count {
			t.Errorf("tail of %d samples = %+v, want q=%v value=%v", len(c.xs), got, c.q, c.v)
		}
	}
}

func TestAgreeAA(t *testing.T) {
	flat := []float64{10, 10, 10, 10}
	for _, c := range []struct {
		name          string
		a, b          []float64
		lower         bool
		agree, steady bool
	}{
		{"identical", flat, flat, true, true, true},
		{"small spread", []float64{10, 10.1, 9.9, 10}, []float64{10, 10.2, 9.9, 10.1}, true, true, true},
		{"spread above a third of the bound", []float64{9.8, 10, 10.3, 10.4}, flat, true, true, false},
		{"second median drifts past the bound", flat, scaled(flat, 1.2), true, false, false},
		{"second median better by any amount", flat, scaled(flat, 0.5), true, true, true},
		{"higher is better, second median lower", flat, scaled(flat, 0.8), false, false, false},
		{"spread beyond the bound", []float64{5, 10, 15, 20}, flat, true, false, false},
	} {
		g := agreeAA(c.a, c.b, 0.1, c.lower)
		if g.agree != c.agree || g.steady != c.steady {
			t.Errorf("%s: %+v, want agree=%v steady=%v", c.name, g, c.agree, c.steady)
		}
	}
}

func TestCompareAB(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	wide := []float64{100, 200, 300, 400}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		want           string
	}{
		{"every pair won by a wide margin", parent, scaled(parent, 0.8), true, improved},
		{"higher is better and the change is higher", parent, scaled(parent, 1.2), false, improved},
		{"within the bound", parent, scaled(parent, 1.05), true, notWorse},
		{"worse than the bound", parent, scaled(parent, 1.2), true, regressed},
		{"gap inside the parent's spread", parent, []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 9.95}, true, notWorse},
		{"spread wider than the bound", wide, scaled(wide, 1.1), true, unresolved},
		{"spread wider than the bound, every change run better", wide, scaled(wide, 0.1), true, notWorse},
	} {
		if got := compareAB(c.parent, c.change, 0.1, c.lower); got.verdict != c.want {
			t.Errorf("%s: %+v, want %s", c.name, got, c.want)
		}
	}
}
