package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := sample{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 10}, {20, 10}, {21, 20}, {50, 30}, {95, 50}, {100, 50}} {
		if got := s.pct(c.q); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (sample{}).pct(50); got != 0 {
		t.Errorf("empty sample pct = %v, want 0", got)
	}
	if s[0] != 50 {
		t.Error("pct sorted the caller's sample in place")
	}
	// A failed operation misses any limit: it sits at the top as +Inf.
	f := sample{1, 2, 3, 4, 5, 6, 7, 8, 9, math.Inf(1)}
	if got := f.pct(90); got != 9 {
		t.Errorf("p90 with one failure in ten = %v, want 9", got)
	}
	if got := f.pct(95); !math.IsInf(got, 1) {
		t.Errorf("p95 with one failure in ten = %v, want +Inf", got)
	}
}

func TestMedianMeanAndCounts(t *testing.T) {
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := (sample{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := (sample{1, 2, 3, 6}).mean(); got != 3 {
		t.Errorf("mean = %v", got)
	}
	s := sample{5, 9, 2}
	if s.min() != 2 || s.max() != 9 || len(s) != 3 {
		t.Errorf("min/max/count = %v/%v/%d", s.min(), s.max(), len(s))
	}
}

// The driver measures spread with Python's statistics.quantiles(v, n=4);
// these are its outputs for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := (sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).quartiles()
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("ten values: %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = (sample{5, 1, 4, 2, 3}).quartiles()
	if !near(q1, 1.5) || !near(q2, 3) || !near(q3, 4.5) {
		t.Errorf("five values: %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	q1, q2, q3 = (sample{10, 20}).quartiles()
	if !near(q1, 7.5) || !near(q2, 15) || !near(q3, 22.5) {
		t.Errorf("two values: %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
	if got := (sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).spread(); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}
