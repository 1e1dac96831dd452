package main

import (
	"sync"
	"time"

	"allscale/internal/core"
	"allscale/internal/metrics"
)

// recorder collects one driver's samples. Every driver owns one, so
// the timed loop takes no lock; merge folds them after the drivers
// have returned.
type recorder struct {
	t0        time.Time
	at        []time.Duration // completion time of each successful op since t0
	lat       []time.Duration // its latency
	attempted int
	failed    int
	firstErr  error
	series    map[string][]time.Duration // named side measurements (submit round trip, queue wait, ...)
}

// op records one attempted unit op that started at start and took lat.
func (r *recorder) op(start time.Time, lat time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.at = append(r.at, start.Add(lat).Sub(r.t0))
	r.lat = append(r.lat, lat)
}

// timed runs fn as one unit op.
func (r *recorder) timed(fn func() error) {
	start := time.Now()
	err := fn()
	r.op(start, time.Since(start), err)
}

func (r *recorder) sample(name string, d time.Duration) {
	if r.series == nil {
		r.series = make(map[string][]time.Duration)
	}
	r.series[name] = append(r.series[name], d)
}

func (r *recorder) merge(o *recorder) {
	r.at = append(r.at, o.at...)
	r.lat = append(r.lat, o.lat...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	for name, ds := range o.series {
		if r.series == nil {
			r.series = make(map[string][]time.Duration)
		}
		r.series[name] = append(r.series[name], ds...)
	}
}

// phase is the outcome of one timed region.
type phase struct {
	recorder
	wall       time.Duration
	cpuSeconds float64          // process CPU time, user and system, spent over the region
	paceAt     []time.Duration  // when each pace sample was taken since t0, all drivers'
	paces      []float64        // and its value
	before     metrics.Snapshot // registry sums over all ranks at the region's start
	after      metrics.Snapshot // and at its end
}

// measure drives the instance closed-loop for the given time, or until
// each driver has attempted maxOps ops when maxOps is positive. Every
// driver samples the machine's pace between ops, on a pacer of its own.
func measure(inst *instance, length time.Duration, maxOps int) (*phase, error) {
	pacers := make([]*pacer, inst.drivers)
	for d := range pacers {
		pc, err := newPacer()
		if err != nil {
			return nil, err
		}
		defer pc.close()
		pacers[d] = pc
	}
	reg := &phase{before: sumRegistries(inst.sys)}
	cpu0 := cpuSeconds()
	reg.t0 = time.Now()
	recs := make([]recorder, inst.drivers)
	var wg sync.WaitGroup
	for d := range recs {
		recs[d].t0 = reg.t0
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rec := &recs[d]
			for time.Since(reg.t0) < length && (maxOps <= 0 || rec.attempted < maxOps) {
				pacers[d].tick(reg.t0)
				// The root span of a traced pass; a nil tracer makes it a no-op.
				sp := inst.sys.Tracer(0).Begin(opSpan, "", 0)
				inst.step(d, rec)
				sp.End()
			}
		}(d)
	}
	wg.Wait()
	reg.wall = time.Since(reg.t0)
	reg.cpuSeconds = cpuSeconds() - cpu0
	reg.after = sumRegistries(inst.sys)
	for d := range recs {
		reg.merge(&recs[d])
		reg.paceAt = append(reg.paceAt, pacers[d].at...)
		reg.paces = append(reg.paces, pacers[d].paces...)
		if reg.firstErr == nil {
			reg.firstErr = pacers[d].err
		}
	}
	return reg, nil
}

// sumRegistries adds up the metric registries of all localities: the
// layer counters are per rank, a unit op spans ranks.
func sumRegistries(sys *core.System) metrics.Snapshot {
	total := metrics.Snapshot{
		Counters:   make(map[string]uint64),
		Histograms: make(map[string]metrics.HistogramSnapshot),
	}
	for rank := 0; rank < sys.Size(); rank++ {
		s := sys.Metrics(rank).Snapshot()
		for name, v := range s.Counters {
			total.Counters[name] += v
		}
		for name, h := range s.Histograms {
			sum := total.Histograms[name]
			sum.Count += h.Count
			sum.SumNanos += h.SumNanos
			total.Histograms[name] = sum
		}
	}
	return total
}

// count returns how far a counter advanced over the region.
func (r *phase) count(name string) float64 {
	return float64(r.after.Counters[name] - r.before.Counters[name])
}

// perOp returns a counter's advance per attempted op.
func (r *phase) perOp(name string) float64 {
	if r.attempted == 0 {
		return 0
	}
	return r.count(name) / float64(r.attempted)
}

// meanMicros returns the mean of the observations a latency histogram
// took over the region, in µs; 0 without observations.
func (r *phase) meanMicros(name string) float64 {
	a, b := r.after.Histograms[name], r.before.Histograms[name]
	if a.Count == b.Count {
		return 0
	}
	return float64(a.SumNanos-b.SumNanos) / float64(a.Count-b.Count) / 1e3
}
