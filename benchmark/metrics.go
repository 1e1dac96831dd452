package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"allscale/internal/dim"
	"allscale/internal/jobs"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one metric of the ledger. BENCHMARK.json lists the
// same names; TestSchema keeps the two in step, and run refuses to
// report a set that differs from these tables.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the runtime sees. Every workload reports
// every row.
var endToEnd = []metricDef{
	// The median latency of the unit op (step / tree / query / job),
	// adjusted to the machine's pace: the median over half-second windows
	// of the window's median latency divided by the window's mean pace
	// (README, estimator). harness.raw_op_p50_ms is the unadjusted one.
	{"op_p50_ms", "ms"},
	// The time to build the system and create and load its data,
	// adjusted to the pace around it; the lower decile of a run's
	// repeated set-ups. What is set up lazily is paid by the first op,
	// the ungated harness.first_op_ms.
	{"setup_s", "s"},
}

// The layer budget, by where a row comes from.
var (
	// countRows are registry deltas over the untraced timed region, per
	// attempted op, and the stamps jobs-mixed records (0 elsewhere).
	countRows = []metricDef{
		{"transport.msgs_per_op", "count"},
		{"transport.bytes_per_op", "B"},
		{"runtime.rpc_calls_per_op", "count"},
		{"runtime.rpc_oneways_per_op", "count"},
		{"runtime.rpc_roundtrip_mean_us", "us"},
		{"runtime.rpc_retries", "count"},
		{"dim.acquires_per_op", "count"},
		{"dim.acquire_wait_mean_us", "us"},
		{"dim.locates_per_op", "count"},
		{"dim.locate_rpcs_per_op", "count"},
		{"dim.locate_cache_hit_ratio", "ratio"},
		{"sched.tasks_per_op", "count"},
		{"sched.splits_per_op", "count"},
		{"sched.remote_placed_per_op", "count"},
		{"sched.steal_attempts_per_op", "count"},
		{"sched.steal_success_ratio", "ratio"},
		{"sched.task_exec_mean_us", "us"},
		{"sched.worker_idle_share", "ratio"},
		{"jobs.journal_bytes_per_op", "B"},
		{"jobs.fsyncs_per_op", "count"},
		{"jobs.rejected", "count"},
		{"jobs.submit_p50_us", "us"},
		{"jobs.queue_p50_ms", "ms"},
		{"jobs.admit_to_exec_p50_us", "us"},
		{"jobs.run_p50_ms.pfor", "ms"},
		{"jobs.run_p50_ms.stencil", "ms"},
		{"jobs.run_p50_ms.tpc", "ms"},
		{"jobs.run_p50_ms.ipic3d", "ms"},
	}
	// probeRows are the layer probes: the median time of one public
	// call, the same on every workload.
	probeRows = []metricDef{
		{"wire.encode_halo_ns", "ns"},
		{"wire.decode_halo_ns", "ns"},
		{"region.boxset_union_ns", "ns"},
		{"region.boxset_difference_ns", "ns"},
		{"dataitem.extract_halo_us", "us"},
		{"dataitem.insert_halo_us", "us"},
		{"dataitem.at_1block_ns", "ns"},
		{"dataitem.at_16blocks_ns", "ns"},
		{"transport.inproc_rtt_us", "us"},
		{"transport.tcp_rtt_us", "us"},
		{"transport.tcp_oneway_us", "us"},
		{"runtime.call_rtt_us", "us"},
		{"runtime.call_supervised_rtt_us", "us"},
		{"dim.acquire_local_us", "us"},
		{"dim.acquire_remote_read_us", "us"},
		{"dim.acquire_remote_write_us", "us"},
		{"dim.locate_hit_ns", "ns"},
		{"dim.locate_walk_us", "us"},
		{"dim.item_create_destroy_us", "us"},
		{"sched.spawn_local_us", "us"},
		{"sched.spawn_remote_us", "us"},
		{"sched.spawn_windowed_us", "us"},
		{"core.pfor_single_leaf_us", "us"},
		{"jobs.journal_append_us", "us"},
		{"jobs.submit_mem_us", "us"},
		{"jobs.submit_journal_us", "us"},
		{"jobs.proto_status_rtt_us", "us"},
		{"apps.stencil_seq_step_us", "us"},
		{"apps.tpc_seq_query_us", "us"},
	}
	// traceRows come from the traced pass: self time per span name and
	// attempted op, and what the spans leave unexplained.
	traceRows = []metricDef{
		{"trace.task_spawn_self_us_per_op", "us"},
		{"trace.task_schedule_self_us_per_op", "us"},
		{"trace.task_enqueue_self_us_per_op", "us"},
		{"trace.task_exec_self_us_per_op", "us"},
		{"trace.task_split_self_us_per_op", "us"},
		{"trace.dim_acquire_self_us_per_op", "us"},
		{"trace.dim_locate_self_us_per_op", "us"},
		{"trace.rpc_call_self_us_per_op", "us"},
		{"trace.rpc_serve_self_us_per_op", "us"},
		{"trace.job_run_self_us_per_op", "us"},
		{"trace.spans_per_op", "count"},
		{"trace.dropped", "count"},
		{"trace.uncovered_share", "ratio"},
		{"trace.overhead_share", "ratio"},
	}
	// harnessRows are the harness's own diagnostics of a timed region.
	harnessRows = []metricDef{
		{"harness.ops", "count"},
		{"harness.ops_per_s", "1/s"},
		{"harness.pace", "ratio"},
		{"harness.raw_op_p50_ms", "ms"},
		{"harness.raw_op_p99_ms", "ms"},
		{"harness.cpu_ms_per_op", "ms"},
		{"harness.first_op_ms", "ms"},
		{"harness.peak_rss_mb", "MB"},
		{"harness.steal_share", "ratio"},
		{"harness.calib_ns", "ns"},
		{"harness.crashed_runs", "count"},
	}
	perLayer = slices.Concat(countRows, probeRows, traceRows, harnessRows)
)

// tracedSpans are the runtime span names the budget reports, keyed by
// the perLayer row each feeds.
var tracedSpans = map[string]string{
	"task.spawn":    "trace.task_spawn_self_us_per_op",
	"task.schedule": "trace.task_schedule_self_us_per_op",
	"task.enqueue":  "trace.task_enqueue_self_us_per_op",
	"task.exec":     "trace.task_exec_self_us_per_op",
	"task.split":    "trace.task_split_self_us_per_op",
	"dim.acquire":   "trace.dim_acquire_self_us_per_op",
	"dim.locate":    "trace.dim_locate_self_us_per_op",
	"rpc.call":      "trace.rpc_call_self_us_per_op",
	"rpc.serve":     "trace.rpc_serve_self_us_per_op",
	"job.run":       "trace.job_run_self_us_per_op",
}

// metricSet accumulates named values and stamps their units from a
// table when it is sealed.
type metricSet map[string]float64

// seal checks that exactly the defs' names were set and attaches the
// units.
func (s metricSet) seal(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := s[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	var extra []string
	for name := range s {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("harness bug: metrics missing %v, unknown %v", missing, extra)
	}
	return out, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts derives the count rows from the registry deltas and
// recorded stamps of one untraced timed region.
func layerCounts(s metricSet, ph *phase, workers int) {
	s["transport.msgs_per_op"] = ph.perOp(transport.MetricMsgsSent)
	s["transport.bytes_per_op"] = ph.perOp(transport.MetricBytesSent)
	s["runtime.rpc_calls_per_op"] = ph.perOp(runtime.MetricRPCCalls)
	s["runtime.rpc_oneways_per_op"] = ph.perOp(runtime.MetricRPCOneWays)
	s["runtime.rpc_roundtrip_mean_us"] = ph.meanMicros(runtime.MetricRPCRoundtrip)
	s["runtime.rpc_retries"] = ph.count(runtime.MetricRPCRetries)
	s["dim.acquires_per_op"] = ph.perOp(dim.MetricAcquires)
	s["dim.acquire_wait_mean_us"] = ph.meanMicros(dim.MetricAcquireWait)
	s["dim.locates_per_op"] = ph.perOp(dim.MetricLocates)
	s["dim.locate_rpcs_per_op"] = ph.perOp(dim.MetricLocateRPCs)
	hits, misses := ph.count(dim.MetricLocateCacheHits), ph.count(dim.MetricLocateCacheMisses)
	s["dim.locate_cache_hit_ratio"] = ratio(hits, hits+misses)
	s["sched.tasks_per_op"] = ph.perOp(sched.MetricExecuted)
	s["sched.splits_per_op"] = ph.perOp(sched.MetricSplits)
	s["sched.remote_placed_per_op"] = ph.perOp(sched.MetricRemotePlaced)
	s["sched.steal_attempts_per_op"] = ph.perOp(sched.MetricStealAttempts)
	s["sched.steal_success_ratio"] = ratio(ph.count(sched.MetricSteals), ph.count(sched.MetricStealAttempts))
	s["sched.task_exec_mean_us"] = ph.meanMicros(sched.MetricTaskExec)
	s["sched.worker_idle_share"] = ratio(ph.count(sched.MetricWorkerIdleUs),
		float64(workers)*float64(ph.wall/time.Microsecond))
	s["jobs.journal_bytes_per_op"] = ph.perOp(jobs.MetricJournalBytes)
	s["jobs.fsyncs_per_op"] = ph.perOp(jobs.MetricJournalFsyncs)
	var rejected float64
	for name := range ph.after.Counters {
		if strings.HasPrefix(name, "jobs.rejected.") {
			rejected += ph.count(name)
		}
	}
	s["jobs.rejected"] = rejected

	series := func(name string, unit time.Duration) float64 {
		if ds := ph.series[name]; len(ds) > 0 {
			return median(in(unit, ds))
		}
		return 0
	}
	s["jobs.submit_p50_us"] = series("submit", time.Microsecond)
	s["jobs.queue_p50_ms"] = series("queue", time.Millisecond)
	s["jobs.admit_to_exec_p50_us"] = series("admit_to_exec", time.Microsecond)
	for _, family := range jobFamilies {
		s["jobs.run_p50_ms."+family] = series("run."+family, time.Millisecond)
	}
}

// opP50 is the end-to-end latency estimator, in ms.
func (ph *phase) opP50() float64 {
	return pacedQuantile(ph.at, in(time.Millisecond, ph.lat), ph.paceAt, ph.paces, 0.50, paceWindow)
}
