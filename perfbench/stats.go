package main

import (
	"math"
	"slices"
)

// minAbove is how many samples must lie above a reported tail percentile: a
// p90 is only meaningful when at least this many samples exceed it.
const minAbove = 10

// Summary is the distribution of one metric's samples within a run.
type Summary struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	P90 float64 `json:"p90"`
	// Above90 counts the samples strictly above P90.
	Above90 int `json:"above_p90"`
}

// P90OK reports whether enough samples lie above the p90 for it to be
// reported (minAbove), i.e. the run took at least ~100 samples.
func (s Summary) P90OK() bool { return s.Above90 >= minAbove }

// Summarize computes the quartiles and p90 of xs by linear interpolation
// between order statistics (the R-7 / numpy default rule). xs is not
// modified. An empty input yields the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	sum := Summary{
		N:   len(s),
		P25: quantile(s, 0.25),
		P50: quantile(s, 0.50),
		P75: quantile(s, 0.75),
		P90: quantile(s, 0.90),
	}
	for _, x := range s {
		if x > sum.P90 {
			sum.Above90++
		}
	}
	return sum
}

// quantile returns the q-quantile of sorted by linear interpolation between
// the order statistics at ranks floor(h) and ceil(h), h = (n-1)·q.
func quantile(sorted []float64, q float64) float64 {
	h := float64(len(sorted)-1) * q
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (h-lo)*(sorted[i+1]-sorted[i])
}

// Metric is one named measurement of a run: its samples and which statistic
// of them is the reported value.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Stat selects the reported value: "p50" (the default) or "p90".
	Stat    string
	Samples []float64
}

// Value is the metric's reported statistic.
func (m Metric) Value() float64 {
	s := Summarize(m.Samples)
	if m.Stat == "p90" {
		return s.P90
	}
	return s.P50
}

// one wraps a single measurement as a one-sample metric.
func one(name, unit, better string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Better: better, Samples: []float64{v}}
}

// median is the p50 of xs (0 for no samples).
func median(xs []float64) float64 { return Summarize(xs).P50 }
