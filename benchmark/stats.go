package main

import "sort"

// tailLadder are the tail percentiles a timing may be reported at.
var tailLadder = []float64{99, 95, 90, 75}

// tailPercentile picks the highest percentile of the ladder that has at
// least ten of n samples beyond it, falling back to the median; a metric
// named *_p99 therefore degrades to a lower percentile at reduced scale
// instead of reporting a tail made of two or three samples.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// quantile is the nearest-rank q-quantile (0..1) of unsorted vs; 0 when empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

// tailOf reports the median and the tail of vs, with the percentile the tail
// actually is.
func tailOf(vs []float64) (p50, tail, pct float64) {
	pct = tailPercentile(len(vs))
	return quantile(vs, 0.5), quantile(vs, pct/100), pct
}

// quartiles are the first, second and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) gives them (the exclusive method), so a
// spread printed here reads the same as one a driver computes over runs.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	_, q2, _ := quartiles(vs)
	return q2
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise figure printed beside every host-time
// metric. With three values it is (max-min)/median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	return ratio(q3-q1, q2)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
