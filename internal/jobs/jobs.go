// Package jobs implements the multi-tenant job service of DESIGN.md
// §6h: a long-running layer over core.System that admits a stream of
// jobs from many tenants, starts them in weighted fair-share order,
// runs each as a tenant/job-tagged task tree, and scopes observability
// (trace subtree, admission-to-first-exec and completion latency
// histograms) per job and tenant. The paper's runtime executes one
// application per lifetime; this package is the refactor that turns
// the same substrate — scheduler, data item manager, elastic
// membership — into a shared service (ROADMAP item 2, in the spirit
// of Region Templates' resource manager multiplexing many region
// workloads and ParalleX's many-source work multiplexing).
package jobs

import (
	"errors"
	"fmt"
	"time"
)

// JobState is the lifecycle state of a job.
type JobState int32

const (
	// Pending: admitted, waiting for the dispatcher.
	Pending JobState = iota
	// Running: the job's task tree is executing.
	Running
	// Done: completed successfully.
	Done
	// Failed: the job's task tree returned an error.
	Failed
	// Cancelled: cancelled before or during execution.
	Cancelled
)

func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Admission rejection reasons; Submit wraps them with detail. The
// sentinel is retained through the wire protocol via its message.
var (
	// ErrBacklogFull rejects when the service-wide pending queue is at
	// capacity.
	ErrBacklogFull = errors.New("jobs: backlog full")
	// ErrTenantPending rejects when the tenant's pending quota is
	// exhausted.
	ErrTenantPending = errors.New("jobs: tenant pending quota exceeded")
	// ErrTenantMemory rejects when admitting the job would exceed the
	// tenant's memory quota.
	ErrTenantMemory = errors.New("jobs: tenant memory quota exceeded")
	// ErrUnknownFamily rejects a job naming an unregistered workload
	// family.
	ErrUnknownFamily = errors.New("jobs: unknown workload family")
	// ErrBadParams rejects malformed workload parameters.
	ErrBadParams = errors.New("jobs: invalid workload parameters")
	// ErrDraining rejects submissions during shutdown.
	ErrDraining = errors.New("jobs: service draining")
	// ErrNoSuchJob reports an unknown job ID.
	ErrNoSuchJob = errors.New("jobs: no such job")
	// ErrNoSuchTenant reports an unknown tenant name.
	ErrNoSuchTenant = errors.New("jobs: no such tenant")
	// ErrServerDraining is the typed protocol error a shutting-down
	// server sends before closing a connection: the request was not
	// rejected on its merits, the server is going away for good.
	ErrServerDraining = errors.New("jobs: server draining")
	// ErrServerRestarting is the typed protocol error for a
	// restart-style shutdown (Suspend): the durable registry survives,
	// so clients should reconnect with backoff and retry — a retried
	// submit resolves to its original job via the submit token.
	ErrServerRestarting = errors.New("jobs: server restarting")
)

// SubmitToken is the per-client idempotency token carried by a
// submission. Client is a unique client identity, Seq a
// client-monotonic sequence number; both are journaled with the
// admission, making a retried submit — across connection loss and
// daemon restarts — resolve to the original job ID instead of a
// duplicate job. Ack is the highest Seq whose response the client has
// already processed; the server prunes dedup state at or below it. The
// zero token disables deduplication.
type SubmitToken struct {
	Client string
	Seq    uint64
	Ack    uint64
}

// Quota bounds one tenant's resource consumption.
type Quota struct {
	// MaxActive caps the tenant's concurrently running jobs.
	// Default 4.
	MaxActive int
	// MaxPending caps the tenant's admitted-but-not-started jobs.
	// Default 64.
	MaxPending int
	// MaxBytes caps the estimated data footprint of the tenant's
	// running jobs (0 = unlimited).
	MaxBytes int64
	// Weight is the tenant's fair-share weight in the job dispatcher.
	// Default 1.
	Weight int
}

func (q Quota) normalized() Quota {
	if q.MaxActive <= 0 {
		q.MaxActive = 4
	}
	if q.MaxPending <= 0 {
		q.MaxPending = 64
	}
	if q.Weight < 1 {
		q.Weight = 1
	}
	return q
}

// JobSpec names a workload family with its parameters (an untyped
// value marshalled to JSON: one of PForParams, StencilParams,
// TPCParams, IPiC3DParams, or the equivalent map).
type JobSpec struct {
	Family string
	Params any
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID     uint64 `json:"id"`
	Tenant string `json:"tenant"`
	Family string `json:"family"`
	State  string `json:"state"`
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	// Submitted is the admission time; Started the dispatch time;
	// FirstExec when the first task variant of the job executed
	// anywhere; Finished the completion time (zero while running).
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	FirstExec time.Time `json:"first_exec,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
}

// TenantStatus is a point-in-time snapshot of one tenant, including
// its per-tenant metrics view.
type TenantStatus struct {
	Name      string `json:"name"`
	ID        uint32 `json:"tid"`
	Weight    int    `json:"weight"`
	Pending   int    `json:"pending"`
	Active    int    `json:"active"`
	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// TasksExecuted is the scheduler-side per-tenant execution count
	// summed over all localities (sched.tenant.<id>.executed).
	TasksExecuted uint64 `json:"tasks_executed"`
	// AdmitToExecP50/P99 are quantiles of the admission-to-first-exec
	// latency in microseconds; DurationP50/P99 of the admission-to-
	// completion latency.
	AdmitToExecP50 float64 `json:"admit_to_exec_p50_us"`
	AdmitToExecP99 float64 `json:"admit_to_exec_p99_us"`
	DurationP50    float64 `json:"duration_p50_us"`
	DurationP99    float64 `json:"duration_p99_us"`
}

// Per-tenant registry metric names, published on locality 0's
// registry (the service's home rank).
const (
	metricAdmittedPrefix  = "jobs.admitted."      // + tenant ID: admitted jobs
	metricRejectedPrefix  = "jobs.rejected."      // + tenant ID: rejected submissions
	metricCompletedPrefix = "jobs.completed."     // + tenant ID: jobs finished Done
	metricFailedPrefix    = "jobs.failed."        // + tenant ID: jobs finished Failed
	metricCancelledPrefix = "jobs.cancelled."     // + tenant ID: jobs finished Cancelled
	metricAdmitExecPrefix = "jobs.admit_to_exec." // + tenant ID: µs histogram
	metricDurationPrefix  = "jobs.duration."      // + tenant ID: µs histogram
)

// MetricAdmitted returns the admitted-jobs counter name of a tenant.
func MetricAdmitted(tid uint32) string { return fmt.Sprintf("%s%d", metricAdmittedPrefix, tid) }

// MetricRejected returns the rejected-submissions counter name.
func MetricRejected(tid uint32) string { return fmt.Sprintf("%s%d", metricRejectedPrefix, tid) }

// MetricCompleted returns the completed-jobs counter name.
func MetricCompleted(tid uint32) string { return fmt.Sprintf("%s%d", metricCompletedPrefix, tid) }

// MetricFailed returns the failed-jobs counter name.
func MetricFailed(tid uint32) string { return fmt.Sprintf("%s%d", metricFailedPrefix, tid) }

// MetricCancelled returns the cancelled-jobs counter name.
func MetricCancelled(tid uint32) string { return fmt.Sprintf("%s%d", metricCancelledPrefix, tid) }

// MetricAdmitToExec returns the admission-to-first-exec histogram
// name.
func MetricAdmitToExec(tid uint32) string { return fmt.Sprintf("%s%d", metricAdmitExecPrefix, tid) }

// MetricDuration returns the completion-latency histogram name.
func MetricDuration(tid uint32) string { return fmt.Sprintf("%s%d", metricDurationPrefix, tid) }
