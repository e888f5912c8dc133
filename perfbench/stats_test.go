package main

import "testing"

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		q     float64
		value float64
		used  float64
		ok    bool
	}{
		{n: 1000, q: 0.99, value: 990, used: 0.99, ok: true},  // exactly ten beyond
		{n: 2000, q: 0.99, value: 1980, used: 0.99, ok: true}, // twenty beyond
		{n: 500, q: 0.99, value: 490, used: 0.98, ok: true},   // p99 unsupported: falls back to p98
		{n: 999, q: 0.99, value: 989, used: 989.0 / 999, ok: true},
		{n: 100, q: 0.5, value: 50, used: 0.5, ok: true},
		{n: 11, q: 0.99, value: 1, used: 1.0 / 11, ok: true},
		{n: 10, q: 0.5, ok: false},
		{n: 0, q: 0.5, ok: false},
	}
	for _, c := range cases {
		v, used, ok := tailPercentile(ramp(c.n), c.q)
		if ok != c.ok || (ok && (v != c.value || used != c.used)) {
			t.Errorf("tailPercentile(n=%d, q=%v) = %v, %v, %v; want %v, %v, %v", c.n, c.q, v, used, ok, c.value, c.used, c.ok)
		}
		if ok && c.n-int(v) < minTail {
			t.Errorf("n=%d q=%v: only %d samples beyond %v", c.n, c.q, c.n-int(v), v)
		}
	}
}

func TestTailPercentileCeiling(t *testing.T) {
	// Asked for the maximum, the estimator returns the highest percentile
	// that still leaves ten samples beyond it.
	v, used, ok := tailPercentile(ramp(5000), 1)
	if !ok || v != 4990 || used != 0.998 {
		t.Fatalf("tailPercentile(5000, 1) = %v, %v, %v; want 4990, 0.998, true", v, used, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its input in place")
	}
}
