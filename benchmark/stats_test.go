package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {540_000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // unsorted on purpose
	}
	p50, tail, pct := tailOf(vs)
	if p50 != 51 || tail != 91 || pct != 90 {
		t.Errorf("tailOf(1..100) = %g, %g at p%g; want 51, 91 at p90", p50, tail, pct)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q2, q3 := quartiles(vs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(vs); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := spread([]float64{10, 11, 12}); got != 2.0/11 {
		t.Errorf("spread of three = %g, want (max-min)/median", got)
	}
	if median([]float64{4}) != 4 || median(nil) != 0 || spread(nil) != 0 {
		t.Error("degenerate inputs")
	}
}
