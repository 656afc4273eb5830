package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Summarize must sort
	}
	return xs
}

func TestSummarizePercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n                  int
		p25, p50, p75, p90 float64
		above              int
		ok                 bool
	}{
		// h = (n-1)·q between ranks, linear interpolation (R-7).
		{n: 100, p25: 25.75, p50: 50.5, p75: 75.25, p90: 90.1, above: 10, ok: true},
		{n: 99, p25: 25.5, p50: 50, p75: 74.5, p90: 89.2, above: 10, ok: true},
		{n: 50, p25: 13.25, p50: 25.5, p75: 37.75, p90: 45.1, above: 5, ok: false},
		{n: 1, p25: 1, p50: 1, p75: 1, p90: 1, above: 0, ok: false},
	} {
		s := Summarize(seq(tc.n))
		got := []float64{s.P25, s.P50, s.P75, s.P90}
		want := []float64{tc.p25, tc.p50, tc.p75, tc.p90}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("n=%d: quartiles/p90 = %v, want %v", tc.n, got, want)
				break
			}
		}
		if s.N != tc.n || s.Above90 != tc.above || s.P90OK() != tc.ok {
			t.Errorf("n=%d: N=%d above=%d ok=%v, want N=%d above=%d ok=%v",
				tc.n, s.N, s.Above90, s.P90OK(), tc.n, tc.above, tc.ok)
		}
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty input: %+v, want zero Summary", s)
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMetricValueSelectsStat(t *testing.T) {
	m := Metric{Samples: seq(100)}
	if got := m.Value(); got != 50.5 {
		t.Errorf("p50 metric value = %v, want 50.5", got)
	}
	m.Stat = "p90"
	if got := m.Value(); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 metric value = %v, want 90.1", got)
	}
}
