package main

import (
	"sort"

	"allscale/internal/trace"
)

// opSpan is the name of the root span the harness wraps around every
// closed-loop iteration of a traced pass.
const opSpan = "bench.op"

// interval is a half-open time interval [lo, hi) in tracer nanoseconds.
type interval struct{ lo, hi int64 }

// mergeIntervals returns the union of ivs as sorted, disjoint,
// non-empty intervals.
func mergeIntervals(ivs []interval) []interval {
	sorted := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.hi > iv.lo {
			sorted = append(sorted, iv)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lo < sorted[j].lo })
	var out []interval
	for _, iv := range sorted {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// unionLength returns the total length covered by ivs.
func unionLength(ivs []interval) int64 {
	var total int64
	for _, iv := range mergeIntervals(ivs) {
		total += iv.hi - iv.lo
	}
	return total
}

// overlapLength returns the length covered by both a and b, each
// sorted and disjoint as mergeIntervals returns them.
func overlapLength(a, b []interval) int64 {
	var total int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			total += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return total
}

func spanInterval(s *trace.Span) interval { return interval{s.Start, s.Start + s.Dur} }

// selfTimes attributes every instant at which some span is open to the
// innermost open span — the one that started last, on whatever rank —
// and returns the attributed time per span name. A span's share is its
// duration minus what later-started spans cover of it: self time with
// children found by time nesting instead of by parent id, because the
// runtime's rpc.call and dim.locate spans carry no parent. The shares
// add up to the time during which any span was open.
func selfTimes(spans []trace.Span) map[string]int64 {
	type edge struct {
		at   int64
		span int
		open bool
	}
	edges := make([]edge, 0, 2*len(spans))
	for i := range spans {
		if spans[i].Dur > 0 {
			edges = append(edges, edge{spans[i].Start, i, true}, edge{spans[i].Start + spans[i].Dur, i, false})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	self := make(map[string]int64)
	var open []int // indices of open spans; a handful at any instant
	var last int64
	for _, e := range edges {
		if len(open) > 0 {
			inner := open[0]
			for _, i := range open[1:] {
				if spans[i].Start > spans[inner].Start {
					inner = i
				}
			}
			self[spans[inner].Name] += e.at - last
		}
		last = e.at
		if e.open {
			open = append(open, e.span)
			continue
		}
		for k, i := range open {
			if i == e.span {
				open[k] = open[len(open)-1]
				open = open[:len(open)-1]
				break
			}
		}
	}
	return self
}

// traceBudget is what one traced pass says about where an op's time
// went.
type traceBudget struct {
	self      map[string]int64 // summed self time per runtime span name, ns
	spans     int              // runtime spans inside the timed region
	uncovered float64          // share of op wall time during which no runtime span was open on any rank
}

// budgetFromSpans splits a merged span set into the harness's op
// windows and the runtime's spans, drops what was recorded before the
// first window (warm-up), and attributes the rest.
func budgetFromSpans(all []trace.Span) traceBudget {
	var windows, busy []interval
	var runtime []trace.Span
	first := int64(-1)
	for i := range all {
		if all[i].Name == opSpan && (first < 0 || all[i].Start < first) {
			first = all[i].Start
		}
	}
	for i := range all {
		switch {
		case all[i].Start < first:
		case all[i].Name == opSpan:
			windows = append(windows, spanInterval(&all[i]))
		default:
			runtime = append(runtime, all[i])
			busy = append(busy, spanInterval(&all[i]))
		}
	}
	b := traceBudget{self: selfTimes(runtime), spans: len(runtime)}
	if total := unionLength(windows); total > 0 {
		b.uncovered = 1 - float64(overlapLength(mergeIntervals(windows), mergeIntervals(busy)))/float64(total)
	}
	return b
}
