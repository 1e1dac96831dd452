package main

import (
	"errors"
	"fmt"
	"time"

	"allscale/internal/trace"
)

const (
	// setupRepeats is how often an untraced run sets its system up. It
	// measures the last one and reports the lower decile of all as
	// setup_s: a set-up takes milliseconds, and the quicker ones are
	// those nothing interrupted.
	setupRepeats = 100
	// paceWindow is the width of the windows of the latency estimator
	// (pacedQuantile): short against the minutes over which the machine's
	// mix of paces drifts, long enough for some tens of ops and a few
	// hundred pace samples.
	paceWindow = 500 * time.Millisecond
	// tracedOps caps each driver of the traced pass, which keeps every
	// span of the pass in the rings (trace.dropped stays 0).
	tracedOps     = 500
	traceCapacity = 1 << 21 // spans per rank; the ring grows on demand
)

// result is the last line a run prints: the benchmark contract's
// object, nothing else.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one run hands its parent process.
type report struct {
	result
	// Harness carries the diagnostics of an untraced run's timed
	// region; a traced run has them among its per-layer metrics.
	Harness map[string]metric `json:"harness,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// runConfig sizes one run of one workload.
type runConfig struct {
	workload workload
	seed     int64
	length   time.Duration // timed region of an untraced run; a traced run halves it
	trace    bool
	setups   int
	scratch  string
}

// timedRegion is one set-up, warm-up, timed region and check of a
// workload.
type timedRegion struct {
	ph        *phase
	setupS    []float64 // every set-up's time, divided by the pace around it
	firstOpMs float64   // the kept system's first iteration
	rssMB     float64   // the process's peak resident set when the region ended
	workers   int
	calibNs   float64
	steal     float64
	dropped   uint64
	spans     []trace.Span
	err       error // set-up, operation or oracle failure
}

// runRegion sets the workload up `setups` times, keeps the last
// system, warms it up, drives it for length (each driver capped at
// maxOps when positive), checks the outputs and tears it down.
func runRegion(cfg runConfig, inputs any, setups int, traceCap int, length time.Duration, maxOps int) *timedRegion {
	tr := &timedRegion{}
	pc, err := newPacer()
	if err != nil {
		tr.err = err
		return tr
	}
	defer pc.close()
	var inst *instance
	pace := pc.steady()
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			pace = pc.steady()
		}
		start := time.Now()
		if inst, err = cfg.workload.setup(setupOpts{traceCap: traceCap, scratch: cfg.scratch}, inputs); err != nil {
			tr.err = fmt.Errorf("set-up: %w", err)
			return tr
		}
		took := time.Since(start).Seconds()
		after := pc.steady()
		tr.setupS = append(tr.setupS, took/((pace+after)/2))
	}
	defer inst.close()
	if pc.err != nil {
		tr.err = pc.err
		return tr
	}
	// The first op pays for what the system sets up lazily: TCP dials,
	// first-touch placement, cold caches.
	warm := recorder{t0: time.Now()}
	inst.step(0, &warm)
	tr.firstOpMs = time.Since(warm.t0).Seconds() * 1e3
	for i := 0; i < inst.warmup; i++ {
		for d := 0; d < inst.drivers; d++ {
			inst.step(d, &warm)
		}
	}
	if warm.firstErr != nil {
		tr.err = fmt.Errorf("warm-up: %w", warm.firstErr)
		return tr
	}
	tr.workers = inst.workers
	tr.calibNs = calibrate()
	tr.steal = stealShare(func() { tr.ph, err = measure(inst, length, maxOps) })
	if err != nil {
		tr.err = err
		return tr
	}
	tr.rssMB = peakRSSMB()
	tr.err = tr.ph.firstErr
	if err := inst.verify(); err != nil && tr.err == nil {
		tr.err = err
	}
	if len(tr.ph.lat) == 0 && tr.err == nil {
		tr.err = errors.New("no operation completed in the timed region")
	}
	for _, t := range inst.sys.Tracers() {
		tr.dropped += t.Dropped()
	}
	tr.spans = trace.Merge(inst.sys.Tracers()...)
	return tr
}

// harness fills the harness's own diagnostics of the region.
func (tr *timedRegion) harness(s metricSet) {
	ph := tr.ph
	lat := sortedCopy(in(time.Millisecond, ph.lat))
	s["harness.ops"] = float64(ph.attempted)
	s["harness.ops_per_s"] = ratio(float64(len(lat)), ph.wall.Seconds())
	s["harness.pace"] = mean(ph.paces)
	s["harness.raw_op_p50_ms"] = quantile(lat, 0.50)
	s["harness.raw_op_p99_ms"] = quantile(lat, 0.99)
	s["harness.cpu_ms_per_op"] = ratio(1e3*ph.cpuSeconds, float64(ph.attempted))
	s["harness.first_op_ms"] = tr.firstOpMs
	s["harness.peak_rss_mb"] = tr.rssMB
	s["harness.steal_share"] = tr.steal
	s["harness.calib_ns"] = tr.calibNs
	s["harness.crashed_runs"] = 0 // the parent process knows better
}

// run executes one run in this process.
func run(cfg runConfig) report {
	var rep report
	fail := func(err error) report {
		rep.Correct = false
		if rep.Error == "" && err != nil {
			rep.Error = err.Error()
		}
		if rep.Attempted == 0 { // the contract wants at least one attempted op
			rep.Attempted, rep.Failed = 1, 1
		}
		return rep
	}
	inputs := cfg.workload.inputs(cfg.seed)
	if !cfg.trace {
		tr := runRegion(cfg, inputs, cfg.setups, 0, cfg.length, 0)
		if tr.ph == nil {
			return fail(tr.err)
		}
		rep.Attempted, rep.Failed = tr.ph.attempted, tr.ph.failed
		if tr.err != nil {
			return fail(tr.err)
		}
		var err error
		if rep.Metrics, err = (metricSet{
			"op_p50_ms": tr.ph.opP50(),
			"setup_s":   quantile(sortedCopy(tr.setupS), 0.10),
		}).seal(endToEnd); err != nil {
			return fail(err)
		}
		h := metricSet{}
		tr.harness(h)
		if rep.Harness, err = h.seal(harnessRows); err != nil {
			return fail(err)
		}
		rep.Correct = true
		return rep
	}

	// A traced run: half the time untraced for counts and the reference
	// latency, then a capped traced pass, then the layer probes.
	half := cfg.length / 2
	plain := runRegion(cfg, inputs, 1, 0, half, 0)
	if plain.ph == nil {
		return fail(plain.err)
	}
	rep.Attempted, rep.Failed = plain.ph.attempted, plain.ph.failed
	traced := runRegion(cfg, inputs, 1, traceCapacity, half, tracedOps)
	if traced.ph == nil {
		return fail(traced.err)
	}
	rep.Attempted += traced.ph.attempted
	rep.Failed += traced.ph.failed
	if err := errors.Join(plain.err, traced.err); err != nil {
		return fail(err)
	}

	s := metricSet{}
	layerCounts(s, plain.ph, plain.workers)
	plain.harness(s)

	budget := budgetFromSpans(traced.spans)
	ops := float64(traced.ph.attempted)
	for span, row := range tracedSpans {
		s[row] = float64(budget.self[span]) / 1e3 / ops
	}
	s["trace.spans_per_op"] = float64(budget.spans) / ops
	s["trace.dropped"] = float64(traced.dropped)
	s["trace.uncovered_share"] = budget.uncovered
	s["trace.overhead_share"] = traced.ph.opP50()/plain.ph.opP50() - 1

	probes, err := runProbes(cfg.seed, cfg.scratch)
	for name, v := range probes {
		s[name] = v
	}
	if err != nil {
		return fail(err)
	}
	if rep.Metrics, err = s.seal(perLayer); err != nil {
		return fail(err)
	}
	rep.Correct = true
	return rep
}
