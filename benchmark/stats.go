package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two closest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// sortedCopy returns the values in ascending order, leaving vs alone.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

func median(vs []float64) float64 { return quantile(sortedCopy(vs), 0.5) }

// best returns the value a repeat-and-take-best estimator keeps: the
// minimum of a lower-is-better metric, the maximum otherwise.
func best(vs []float64, lowerIsBetter bool) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	if lowerIsBetter {
		return slices.Min(vs)
	}
	return slices.Max(vs)
}

// spread returns (max − min) ÷ median, the relative width of repeated
// measurements of one quantity; 0 for fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := sortedCopy(vs)
	mid := quantile(s, 0.5)
	if mid == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(mid)
}

// in converts durations to float64 multiples of unit.
func in(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// pacedQuantile is the estimator of a latency quantile on a machine
// whose pace changes while it is measured. The region is cut into
// windows of the given width; each window with enough ops and pace
// samples yields the q-quantile of the latencies of the ops that
// completed in it, divided by the mean of the pace samples taken in
// it; the result is the median over windows. Where no window
// qualifies (a region of a few ops) it is the quantile over the whole
// region divided by the mean of all samples, and NaN without an op or
// a sample.
func pacedQuantile(opAt []time.Duration, lat []float64, paceAt []time.Duration, paces []float64, q float64, width time.Duration) float64 {
	const minOps, minSamples = 5, 10
	type window struct{ lat, paces []float64 }
	windows := make(map[time.Duration]*window)
	at := func(t time.Duration) *window {
		w := windows[t/width]
		if w == nil {
			w = &window{}
			windows[t/width] = w
		}
		return w
	}
	for i, t := range opAt {
		w := at(t)
		w.lat = append(w.lat, lat[i])
	}
	for i, t := range paceAt {
		w := at(t)
		w.paces = append(w.paces, paces[i])
	}
	var ratios []float64
	for _, w := range windows {
		if len(w.lat) >= minOps && len(w.paces) >= minSamples {
			ratios = append(ratios, quantile(sortedCopy(w.lat), q)/mean(w.paces))
		}
	}
	if len(ratios) > 0 {
		return median(ratios)
	}
	return quantile(sortedCopy(lat), q) / mean(paces)
}

// mean returns the arithmetic mean; NaN when empty.
func mean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
