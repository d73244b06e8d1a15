package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of observations of one quantity. Every timing the
// benchmark prints comes with its sample count, so a percentile resting on
// too few observations is visible as such.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// pct returns the q-th percentile (0..100) by the nearest-rank rule on the
// sorted sample: the smallest value with at least q% of the sample at or
// below it. An empty sample yields 0; a sample holding +Inf (a failed or
// shed operation, which misses any latency limit) yields +Inf once q
// reaches the failed share.
func (s sample) pct(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	rank := int(math.Ceil(q / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(v) {
		rank = len(v)
	}
	return v[rank-1]
}

func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

func (s sample) max() float64 {
	m := 0.0
	for i, x := range s {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func (s sample) min() float64 {
	m := 0.0
	for i, x := range s {
		if i == 0 || x < m {
			m = x
		}
	}
	return m
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive" method),
// which is how the driver measures run-to-run spread.
func (s sample) quartiles() (q1, q2, q3 float64) {
	v := s.sorted()
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0], v[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median — the steadiness figure each end-to-end metric's bound is
// judged against.
func (s sample) spread() float64 {
	q1, q2, q3 := s.quartiles()
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// ms converts a simulated or wall duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
