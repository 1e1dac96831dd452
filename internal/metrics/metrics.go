// Package metrics is the runtime's single source of truth for
// operational counters and latency distributions, modeled on the
// on-demand performance introspection the AllScale runtime prototype
// inherits from HPX (Section 3.2): every layer registers its counters
// and histograms in a per-locality Registry, and the monitoring and
// resilience services read snapshots from that one registry instead of
// scraping ad-hoc per-package counter structs.
//
// The package is stdlib-only and always-on: counters are single atomic
// adds and histograms two atomic adds plus a bit-length computation,
// cheap enough to leave enabled in production paths (the optional
// tracing layer in internal/trace is the part that can be switched
// off entirely).
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous level — queue depths, pool occupancy —
// that can move both ways, unlike the monotone Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NumBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations d with 2^(i-1)µs <= d < 2^i µs (bucket 0 holds
// sub-microsecond observations, the last bucket is a catch-all), so
// the range spans 1µs .. ~2³⁰µs ≈ 18 minutes.
const NumBuckets = 32

// Histogram is a fixed-bucket latency histogram over power-of-two
// microsecond boundaries. All fields are atomics, so observations and
// snapshots never block each other; an in-flight snapshot may observe
// a bucket increment whose count increment is not yet visible, but
// never the reverse (Observe writes the bucket first), keeping
// concurrent snapshots internally consistent: sum(Buckets) >= Count.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketBound returns the exclusive upper bound of bucket i (the last
// bucket is unbounded).
func BucketBound(i int) time.Duration {
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// Observe records one latency observation.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	if d > 0 {
		h.sum.Add(uint64(d))
	}
}

// ObserveValue records one dimensionless observation (batch sizes,
// depths): buckets become powers of two of the raw value rather than
// of microseconds, and the snapshot's SumNanos field holds the raw
// sum. A histogram should be fed through either Observe or
// ObserveValue, never both.
func (h *Histogram) ObserveValue(v uint64) {
	i := bits.Len64(v)
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot captures the histogram's current state. Count is read
// before the buckets, so under concurrent Observe traffic
// sum(Buckets) >= Count always holds (a "torn" snapshot with a count
// that exceeds its buckets cannot occur).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNanos = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is one point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count    uint64
	SumNanos uint64
	Buckets  [NumBuckets]uint64
}

// Mean returns the mean observed latency (0 with no observations).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1)
// using the bucket upper bounds; it is exact up to bucket resolution.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := uint64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want == 0 {
		want = 1
	}
	seen := uint64(0)
	for i, b := range s.Buckets {
		seen += b
		if seen >= want {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}

// Registry is a named collection of counters and histograms — one per
// locality, shared by the transport endpoint, the RPC layer, the
// scheduler and the data item manager.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. The returned pointer is stable: callers cache it and hit
// only the atomic on the fast path.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. The returned pointer is stable, like Counter's.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterValue returns the value of the named counter, or 0 when no
// such counter was ever registered.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// Snapshot captures every registered counter and histogram.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// Snapshot is one point-in-time copy of a whole registry.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// String renders the snapshot as a sorted text table (for reports and
// debugging).
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%-32s %d\n", k, s.Counters[k])
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%-32s %d (gauge)\n", k, s.Gauges[k])
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		fmt.Fprintf(&b, "%-32s n=%d mean=%v p99<=%v\n", k, h.Count, h.Mean(), h.Quantile(0.99))
	}
	return b.String()
}
