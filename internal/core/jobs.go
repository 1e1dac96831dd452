package core

import (
	"fmt"

	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/trace"
)

// Job-service hooks (DESIGN.md §6h): the jobs package layers tenants
// and jobs on a System through these thin delegates — spawning tagged
// task trees, cancelling jobs, and observing executions for first-exec
// latency. The tenant and job tags propagate through the whole spawn
// tree and across the wire (sched.TaskSpec), so per-tenant accounting
// and cancellation scope survive shipping, stealing and recovery
// respawns.

// SpawnJobTask schedules a root task from locality 0 tagged with a
// tenant and job, optionally rooting its span chain in a job-level
// span.
func (s *System) SpawnJobTask(kind string, args any, tenant uint32, job uint64, parent trace.SpanID) (*runtime.Future, error) {
	return s.scheds[0].SpawnJob(kind, args, tenant, job, parent)
}

// SpawnPForJob schedules a registered pfor call site over [lo, hi) as
// a tenant/job-tagged task tree and returns its root future (the
// job-service analog of PFor; it does not block).
func (s *System) SpawnPForJob(name string, lo, hi region.Point, extra []byte, tenant uint32, job uint64, parent trace.SpanID) (*runtime.Future, error) {
	if len(lo) != len(hi) {
		return nil, fmt.Errorf("core: pfor bounds of different dimensionality")
	}
	return s.scheds[0].SpawnJob(name, &pforArgs{R: Range{Lo: lo, Hi: hi}, Extra: extra}, tenant, job, parent)
}

// CancelJob cancels a job on every locality: queued tasks purge, ship
// and steal stragglers die at the execution gate, and recovery will
// not resurrect the job's specs (see sched.CancelJob).
func (s *System) CancelJob(job uint64) {
	for _, sc := range s.scheds {
		sc.CancelJob(job)
	}
}

// SetExecObserver installs fn on every locality's scheduler; it fires
// once per executed job-tagged task with the job ID (nil uninstalls).
func (s *System) SetExecObserver(fn func(job uint64)) {
	for _, sc := range s.scheds {
		sc.SetExecObserver(fn)
	}
}
