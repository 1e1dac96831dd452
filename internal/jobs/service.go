package jobs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"allscale/internal/core"
	"allscale/internal/metrics"
	"allscale/internal/sched"
	"allscale/internal/trace"
)

// Config tunes the service-wide admission controller and the durable
// control plane.
type Config struct {
	// MaxActive caps concurrently running jobs across all tenants.
	// Default 16.
	MaxActive int
	// MaxBacklog caps admitted-but-not-started jobs across all
	// tenants; submissions beyond it are rejected with ErrBacklogFull.
	// Default 256.
	MaxBacklog int
	// DefaultQuota applies to tenants auto-registered on first
	// submission (zero fields take the Quota defaults).
	DefaultQuota Quota
	// StateDir, when non-empty, makes the registry durable (DESIGN.md
	// §6i): every tenant upsert, admission, dispatch and terminal
	// transition is journaled there, and Open replays the state on
	// startup — terminal jobs come back as history, unfinished jobs are
	// re-admitted and re-run. Empty keeps the PR 9 in-memory service.
	StateDir string
	// Fsync selects the journal durability policy (FsyncEvery /
	// FsyncIntervalPolicy / FsyncOff). Default FsyncEvery.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncIntervalPolicy period. Default 25ms.
	FsyncInterval time.Duration
	// CompactBytes triggers a compaction — the journal rewritten as the
	// reduced registry — once the records appended since the last one
	// outgrow it. Default 8MB.
	CompactBytes int64
}

func (c Config) normalized() Config {
	if c.MaxActive <= 0 {
		c.MaxActive = 16
	}
	if c.MaxBacklog <= 0 {
		c.MaxBacklog = 256
	}
	if c.Fsync == "" {
		c.Fsync = FsyncEvery
	}
	return c
}

// RecoveryInfo summarizes what Open restored from the state directory.
type RecoveryInfo struct {
	// Tenants is the number of restored tenant registrations.
	Tenants int
	// Terminal counts jobs restored as finished history; Readmitted
	// counts admitted-but-unfinished jobs queued for re-execution.
	Terminal   int
	Readmitted int
	// Replayed is the number of journal records applied on top of the
	// compaction base; TornTail reports a dropped short/corrupt tail.
	Replayed int
	TornTail bool
}

// tenant is one tenant of the registry: its record, and beside it what
// only the live service keeps.
type tenant struct {
	tenantRec
	pending []*job // admitted, not yet dispatched (FIFO)
	active  int    // running jobs
	bytes   int64  // estimated footprint of running jobs
	deficit int    // WRR dispatch deficit

	admitted, rejected           *metrics.Counter
	completed, failed, cancelled *metrics.Counter
	admitExec, duration          *metrics.Histogram
}

// job is one job of the registry: its record, and beside it what only
// the live service keeps.
type job struct {
	jobRec
	ten       *tenant
	done      chan struct{}
	firstExec atomic.Int64 // unix nanos of the first task execution
	rootSpan  trace.SpanID
	cancelReq bool
	// suspend marks a running job whose task tree is being cancelled
	// by a restart-style shutdown: its driver requeues it (no terminal
	// journal record) so it re-runs after recovery.
	suspend bool
}

// Service is the multi-tenant job service over one core.System.
// Create with New after System.Start (workloads registered before).
type Service struct {
	sys *core.System
	w   *Workloads
	cfg Config
	reg *metrics.Registry // locality 0, home of the jobs.* metrics

	mu           sync.Mutex
	state        storeState         // the registry; its tenants are the WRR ring
	tenants      map[string]*tenant // state.Tenants by name
	cursor       int
	pendingTotal int
	activeTotal  int
	draining     bool
	restarting   bool
	tokens       map[string]map[uint64]uint64 // client → seq → job ID

	backlog atomic.Int64 // admitted, not yet finished (elastic signal)

	store     *Store // nil = in-memory (PR 9 behavior)
	recovered RecoveryInfo

	kick      chan struct{} // nudge → dispatcher
	settled   chan struct{} // nudge → a shutdown waiting out its grace window
	stopped   chan struct{}
	suspendCh chan struct{} // closed by Suspend: waiters fail ErrServerRestarting
	wgDisp    sync.WaitGroup
	wgDrv     sync.WaitGroup
	byJob     sync.Map // uint64 → *job, the exec observer's index
}

// New starts an in-memory service. The system must be started and its
// workloads registered (RegisterWorkloads). For a durable service set
// Config.StateDir and use Open; New panics if state recovery fails.
func New(sys *core.System, w *Workloads, cfg Config) *Service {
	s, err := Open(sys, w, cfg)
	if err != nil {
		panic(fmt.Sprintf("jobs.New: %v", err))
	}
	return s
}

// Open starts the service, recovering the durable registry when
// Config.StateDir is set: the journal is replayed, terminal jobs are
// restored as history, admitted-but-unfinished jobs are re-admitted
// under their original IDs (families are deterministic, so re-execution
// is safe), quota accounting is rebuilt from the replayed state, and the
// journal is compacted before the dispatcher starts.
func Open(sys *core.System, w *Workloads, cfg Config) (*Service, error) {
	s := &Service{
		sys: sys, w: w, cfg: cfg.normalized(),
		reg:       sys.Metrics(0),
		tenants:   make(map[string]*tenant),
		tokens:    make(map[string]map[uint64]uint64),
		kick:      make(chan struct{}, 1),
		settled:   make(chan struct{}, 1),
		stopped:   make(chan struct{}),
		suspendCh: make(chan struct{}),
	}
	if s.cfg.StateDir != "" {
		store, rec, err := OpenStore(s.cfg.StateDir, StoreOptions{
			Fsync:         s.cfg.Fsync,
			FsyncInterval: s.cfg.FsyncInterval,
			CompactBytes:  s.cfg.CompactBytes,
			Metrics:       s.reg,
		})
		if err != nil {
			return nil, err
		}
		s.store = store
		s.restore(rec)
		// Compact the replayed journal right away: startup is a natural
		// compaction point, and it proves the write path before the
		// first admission is acknowledged.
		if err := s.compact(); err != nil {
			store.Close()
			return nil, err
		}
	}
	// The scheduler-side exec observer stamps each job's first task
	// execution, closing the admission-to-first-exec latency loop.
	sys.SetExecObserver(func(id uint64) {
		v, ok := s.byJob.Load(id)
		if !ok {
			return
		}
		j := v.(*job)
		now := time.Now().UnixNano()
		if j.firstExec.CompareAndSwap(0, now) {
			j.ten.admitExec.Observe(time.Duration(now - j.Submitted))
		}
	})
	s.wgDisp.Add(1)
	go s.dispatcher()
	if s.recovered.Readmitted > 0 {
		s.nudge()
	}
	return s, nil
}

// Recovery returns what Open restored from the state directory (zero
// value for in-memory services and fresh state dirs).
func (s *Service) Recovery() RecoveryInfo { return s.recovered }

// restore takes over the registry replay built and fills in what only
// the live service keeps: tenant metrics and the name index, the done
// channels of finished jobs, submit tokens, and the pending FIFO, which
// takes every unfinished job back in ID order — one mid-run at the crash
// requeued — to re-run under its ID (families are deterministic). Runs
// before the dispatcher starts, so no locking is needed.
func (s *Service) restore(rec *RecoveredState) {
	s.state = rec.storeState
	info := RecoveryInfo{Tenants: len(s.state.Tenants), Replayed: rec.Replayed, TornTail: rec.TornTail}
	for _, t := range s.state.Tenants {
		s.bindTenant(t)
	}
	for _, j := range s.state.Jobs {
		if j.State == Running {
			s.requeueLocked(j)
		}
		s.admitLocked(j)
		if j.State == Pending {
			info.Readmitted++
		} else {
			close(j.done)
			info.Terminal++
		}
	}
	s.reg.Counter(MetricRecoveredTerminal).Add(uint64(info.Terminal))
	s.reg.Counter(MetricRecoveredReadmitted).Add(uint64(info.Readmitted))
	s.recovered = info
}

// journalLocked appends one record under s.mu, before the caller applies
// it to the registry: journal order is registry order. Only an admission
// acts on an append error, refusing the job before its ack; for any
// other record durability degrades and the live service keeps running.
func (s *Service) journalLocked(body []byte) error {
	if s.store == nil {
		return nil
	}
	return s.store.Append(body)
}

// compact rewrites the journal as the registry stands. Store.Compact
// runs under s.mu, the lock every append happens under: a record
// appended during the compaction would be in neither the new generation
// nor, once the old one is removed, anywhere on disk.
func (s *Service) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Compact(s.state)
}

// RegisterTenant creates (or reconfigures) a tenant with an explicit
// quota; tenants unknown at Submit are auto-registered with the
// config's default quota. The upsert is journaled, so quotas survive a
// daemon restart.
func (s *Service) RegisterTenant(name string, q Quota) error {
	if name == "" {
		return fmt.Errorf("jobs: empty tenant name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	s.upsertTenantLocked(name, q)
	return nil
}

// upsertTenantLocked journals and applies a tenant record for name —
// under a fresh ID if the tenant is new — and returns the tenant.
func (s *Service) upsertTenantLocked(name string, q Quota) *tenant {
	tr := tenantRec{Name: name, ID: s.state.NextTenant + 1, Quota: q.normalized()}
	known := s.tenants[name]
	if known != nil {
		tr.ID = known.ID
	}
	s.journalLocked(appendTenantRec(nil, tr))
	t, _ := s.state.upsertTenant(tr) // a named record always applies
	if known == nil {
		s.bindTenant(t)
	}
	return t
}

// bindTenant gives a registry tenant its per-tenant metrics and enters it
// in the name index (fresh registration and recovery alike).
func (s *Service) bindTenant(t *tenant) {
	id := t.ID
	t.admitted = s.reg.Counter(MetricAdmitted(id))
	t.rejected = s.reg.Counter(MetricRejected(id))
	t.completed = s.reg.Counter(MetricCompleted(id))
	t.failed = s.reg.Counter(MetricFailed(id))
	t.cancelled = s.reg.Counter(MetricCancelled(id))
	t.admitExec = s.reg.Histogram(MetricAdmitToExec(id))
	t.duration = s.reg.Histogram(MetricDuration(id))
	s.tenants[t.Name] = t
}

// admitLocked enters a registry job into the live bookkeeping: its
// submit token, and unless it has finished, the pending FIFO and the
// backlog. Submit runs it on each admission, restore on each replayed
// job.
func (s *Service) admitLocked(j *job) {
	if j.Client != "" {
		m := s.tokens[j.Client]
		if m == nil {
			m = make(map[uint64]uint64)
			s.tokens[j.Client] = m
		}
		m[j.Seq] = j.ID
	}
	if j.State != Pending {
		return
	}
	j.ten.pending = append(j.ten.pending, j)
	s.pendingTotal++
	s.backlog.Add(1)
}

// requeueLocked turns an interrupted run back into a Pending job:
// restore runs it on a job replay left Running (mid-run at the crash), a
// restart-style shutdown on a run it cut short. It is the one change of
// a persisted field outside the reducer, and it journals nothing: replay
// plus restore reaches the same state, since restore requeues every job
// it finds Running.
func (s *Service) requeueLocked(j *job) {
	j.State, j.Started = Pending, 0
	j.firstExec.Store(0)
}

// finishLocked ends a job with a terminal record of the given kind: it
// releases what the job held — its running slot, or its place in the
// pending FIFO — journals and applies the record, counts the outcome and
// wakes the job's waiters. The driver runs it on a job's outcome, Cancel
// on a pending job.
func (s *Service) finishLocked(j *job, kind byte, msg string) {
	t := j.ten
	ran := j.State == Running
	if ran {
		t.active--
		t.bytes -= j.Bytes
		s.activeTotal--
	} else {
		t.pending = slices.DeleteFunc(t.pending, func(p *job) bool { return p == j })
		s.pendingTotal--
	}
	at := time.Now().UnixNano()
	s.journalLocked(appendTerminalRec(nil, kind, j.ID, msg, at))
	j.end(kind, msg, at)
	switch kind {
	case recDone:
		t.completed.Inc()
	case recFail:
		t.failed.Inc()
	default:
		t.cancelled.Inc()
	}
	if ran {
		t.duration.Observe(time.Duration(j.Finished - j.Submitted))
	}
	s.backlog.Add(-1)
	close(j.done)
	s.nudge()
}

// Submit admits one job, returning its ID, or rejects it with a
// reasoned error (ErrBacklogFull / ErrTenantPending / ErrTenantMemory
// / ErrUnknownFamily / ErrBadParams / ErrDraining).
func (s *Service) Submit(tenantName string, spec JobSpec) (uint64, error) {
	return s.SubmitToken(tenantName, spec, SubmitToken{})
}

// SubmitToken is Submit carrying a per-client idempotency token: the
// admission is journaled together with (Client, Seq), so a client
// retrying the same submission — across connection loss and daemon
// restarts — gets the original job ID back instead of a duplicate job.
// Ack is the highest Seq whose response the client already received;
// token state at or below it is pruned. A zero token degrades to plain
// at-most-once Submit.
func (s *Service) SubmitToken(tenantName string, spec JobSpec, tok SubmitToken) (uint64, error) {
	params, err := json.Marshal(spec.Params)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	bytes, verr := s.w.estimate(spec.Family, params)

	s.mu.Lock()
	defer s.mu.Unlock()
	// Duplicate detection precedes every other gate: a retried
	// submission must resolve to its original job even while the
	// service drains or its quotas are exhausted.
	if tok.Client != "" {
		if m := s.tokens[tok.Client]; m != nil {
			for seq := range m {
				if seq <= tok.Ack {
					delete(m, seq)
				}
			}
			if id, dup := m[tok.Seq]; dup {
				return id, nil
			}
		}
	}
	if s.restarting {
		return 0, ErrServerRestarting
	}
	if s.draining {
		return 0, ErrDraining
	}
	t, ok := s.tenants[tenantName]
	if !ok {
		if tenantName == "" {
			return 0, fmt.Errorf("jobs: empty tenant name")
		}
		t = s.upsertTenantLocked(tenantName, s.cfg.DefaultQuota)
	}
	if verr != nil {
		t.rejected.Inc()
		return 0, verr
	}
	// Admission control: global backlog bound, per-tenant pending
	// bound, per-tenant memory budget over running + pending jobs.
	if s.pendingTotal >= s.cfg.MaxBacklog {
		t.rejected.Inc()
		return 0, fmt.Errorf("%w: %d jobs pending service-wide", ErrBacklogFull, s.pendingTotal)
	}
	if len(t.pending) >= t.Quota.MaxPending {
		t.rejected.Inc()
		return 0, fmt.Errorf("%w: tenant %q has %d pending (max %d)",
			ErrTenantPending, tenantName, len(t.pending), t.Quota.MaxPending)
	}
	if t.Quota.MaxBytes > 0 {
		committed := t.bytes
		for _, p := range t.pending {
			committed += p.Bytes
		}
		if committed+bytes > t.Quota.MaxBytes {
			t.rejected.Inc()
			return 0, fmt.Errorf("%w: tenant %q committed %d bytes + job %d > budget %d",
				ErrTenantMemory, tenantName, committed, bytes, t.Quota.MaxBytes)
		}
	}

	// The ID is spent even if the append fails: the record may have
	// reached the file, and replay refuses an ID admitted twice.
	s.state.NextJob++
	jr := jobRec{
		ID: s.state.NextJob, Tenant: t.ID, Family: spec.Family, Params: params,
		Bytes: bytes, Submitted: time.Now().UnixNano(), Client: tok.Client, Seq: tok.Seq,
	}
	// The admission record must be durable before the ack: journal
	// first (under FsyncEvery, Append returns only after the fsync),
	// and refuse the admission if the journal does.
	if err := s.journalLocked(appendAdmitRec(nil, jr)); err != nil {
		t.rejected.Inc()
		return 0, err
	}
	j, err := s.state.admit(jr)
	if err != nil {
		return 0, err
	}
	t.admitted.Inc()
	s.admitLocked(j)
	s.nudge()
	return j.ID, nil
}

// nudge says that the pending or running set changed, to the two
// goroutines that re-read it: the dispatcher, and a shutdown waiting
// out its grace window. Neither send blocks; one buffered signal is
// enough to make the receiver look again.
func (s *Service) nudge() {
	for _, ch := range [...]chan struct{}{s.kick, s.settled} {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (s *Service) dispatcher() {
	defer s.wgDisp.Done()
	for {
		select {
		case <-s.stopped:
			return
		case <-s.kick:
		}
		s.dispatch()
	}
}

// dispatch starts pending jobs while capacity allows, picking tenants
// by weighted deficit round-robin, so a tenant flooding submissions
// cannot monopolize the running-job slots. This is the service's one
// fair-share mechanism (DESIGN.md §6h): the tasks of the jobs it starts
// are scheduled like any other task.
func (s *Service) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.activeTotal < s.cfg.MaxActive && !s.restarting {
		j := s.nextDispatchLocked()
		if j == nil {
			return
		}
		at := time.Now().UnixNano()
		s.journalLocked(appendStartRec(nil, j.ID, at))
		j.start(at)
		j.ten.active++
		j.ten.bytes += j.Bytes
		s.pendingTotal--
		s.activeTotal++
		s.wgDrv.Add(1)
		go s.drive(j)
	}
}

// dispatchableLocked reports whether a tenant has a startable job.
func (s *Service) dispatchableLocked(t *tenant) bool {
	if len(t.pending) == 0 || t.active >= t.Quota.MaxActive {
		return false
	}
	if t.Quota.MaxBytes > 0 && t.bytes+t.pending[0].Bytes > t.Quota.MaxBytes {
		return false
	}
	return true
}

// nextDispatchLocked picks the next job under the WRR rotation; nil
// when no tenant can start one.
func (s *Service) nextDispatchLocked() *job {
	n := len(s.state.Tenants)
	for i := 0; i < n; i++ {
		if s.cursor >= n {
			s.cursor = 0
		}
		t := s.state.Tenants[s.cursor]
		if !s.dispatchableLocked(t) {
			t.deficit = 0
			s.cursor++
			continue
		}
		if t.deficit <= 0 {
			t.deficit = t.Quota.Weight
		}
		t.deficit--
		j := t.pending[0]
		t.pending = t.pending[1:]
		if t.deficit == 0 {
			s.cursor++
		}
		return j
	}
	return nil
}

// drive runs one job to completion on its own goroutine.
func (s *Service) drive(j *job) {
	defer s.wgDrv.Done()
	t := j.ten
	var sp *trace.Span
	if tr := s.sys.Tracer(0); tr != nil {
		sp = tr.Begin("job.run", fmt.Sprintf("%s/%s#%d", t.Name, j.Family, j.ID), 0)
		sp.SetTask(j.ID)
		s.mu.Lock()
		j.rootSpan = sp.SpanID()
		s.mu.Unlock()
	}
	s.byJob.Store(j.ID, j)
	result, err := s.w.run(jobContext{tenant: t.ID, job: j.ID, span: j.rootSpan}, j.Family, j.Params)
	s.byJob.Delete(j.ID)
	if sp != nil {
		sp.SetErr(err)
		sp.End()
	}

	s.mu.Lock()
	switch {
	case j.suspend && err != nil && !j.cancelReq:
		// Restart-style shutdown killed this job's task tree. It is NOT
		// terminal: it goes back to Pending with no journal record, so
		// recovery re-runs it. Waiters were already failed with
		// ErrServerRestarting via the suspend channel; the done channel
		// stays open.
		s.requeueLocked(j)
		t.active--
		t.bytes -= j.Bytes
		s.activeTotal--
		s.mu.Unlock()
		return
	case j.cancelReq || sched.IsJobCancelled(err):
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		s.finishLocked(j, recCancel, msg)
	case err != nil:
		s.finishLocked(j, recFail, err.Error())
	default:
		s.finishLocked(j, recDone, result)
	}
	s.mu.Unlock()
	if s.store != nil && s.store.ShouldCompact() {
		s.compact() // on failure the old generation stays in use
	}
}

// Cancel cancels a job: a pending job leaves the queue immediately; a
// running job has its task tree cancelled on every locality (queued
// tasks purge, stragglers die at the execution gate, recovery will
// not resurrect it) and reaches the Cancelled state once the tree
// unwound. Cancelling a finished job is a no-op.
func (s *Service) Cancel(id uint64) error {
	s.mu.Lock()
	j, err, running := s.state.job(id), error(nil), false
	switch {
	case j == nil:
		err = ErrNoSuchJob
	case s.restarting:
		// Suspend is tearing running jobs down without terminal records;
		// a concurrent cancel would race the requeue.
		err = ErrServerRestarting
	case j.State == Pending:
		s.finishLocked(j, recCancel, "")
	case j.State == Running:
		j.cancelReq, running = true, true
	}
	s.mu.Unlock()
	if running {
		s.sys.CancelJob(id)
	}
	return err
}

// Wait blocks until the job finished and returns its final status. A
// restart-style shutdown (Suspend) fails pending waits with
// ErrServerRestarting: the job is not terminal — it will re-run after
// recovery — so no final status exists yet.
func (s *Service) Wait(id uint64) (JobStatus, error) {
	j := s.job(id)
	if j == nil {
		return JobStatus{}, ErrNoSuchJob
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-s.suspendCh:
		// Terminal-state wins over a concurrent suspend.
		select {
		case <-j.done:
			return s.Status(id)
		default:
		}
		return JobStatus{}, ErrServerRestarting
	}
}

// job looks a job up in the registry (nil if unknown). The protocol
// server waits on its done channel, so a blocked wait can also observe
// connection loss.
func (s *Service) job(id uint64) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.job(id)
}

// Suspended returns a channel closed when the service enters a
// restart-style shutdown (Suspend); waiters should fail with
// ErrServerRestarting and retry after the daemon comes back.
func (s *Service) Suspended() <-chan struct{} { return s.suspendCh }

// Status returns a point-in-time snapshot of one job.
func (s *Service) Status(id uint64) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.state.job(id)
	if j == nil {
		return JobStatus{}, ErrNoSuchJob
	}
	return statusLocked(j), nil
}

// statusLocked snapshots a job; a time the job has not reached (zero
// nanos) stays the zero time.
func statusLocked(j *job) JobStatus {
	at := func(ns int64) (t time.Time) {
		if ns != 0 {
			t = time.Unix(0, ns)
		}
		return t
	}
	return JobStatus{
		ID: j.ID, Tenant: j.ten.Name, Family: j.Family,
		State: j.State.String(), Result: j.Result, Error: j.Error,
		Submitted: at(j.Submitted), Started: at(j.Started),
		FirstExec: at(j.firstExec.Load()), Finished: at(j.Finished),
	}
}

// List returns snapshots of all jobs, ordered by ID.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.state.Jobs))
	for _, j := range s.state.Jobs {
		out = append(out, statusLocked(j))
	}
	return out
}

// Tenants returns per-tenant snapshots including the tenant's metrics
// view (counters, scheduler-side task executions, latency quantiles),
// ordered by tenant ID.
func (s *Service) Tenants() []TenantStatus {
	s.mu.Lock()
	tens := slices.Clone(s.state.Tenants)
	out := make([]TenantStatus, len(tens))
	for i, t := range tens {
		out[i] = TenantStatus{Name: t.Name, ID: t.ID, Weight: t.Quota.Weight, Pending: len(t.pending), Active: t.active}
	}
	s.mu.Unlock()

	snap := s.reg.Snapshot()
	for i, t := range tens {
		ts := &out[i]
		ts.Admitted = t.admitted.Value()
		ts.Rejected = t.rejected.Value()
		ts.Completed = t.completed.Value()
		ts.Failed = t.failed.Value()
		ts.Cancelled = t.cancelled.Value()
		for r := 0; r < s.sys.Size(); r++ {
			ts.TasksExecuted += s.sys.Metrics(r).CounterValue(sched.TenantExecutedMetric(t.ID))
		}
		if h, ok := snap.Histograms[MetricAdmitToExec(t.ID)]; ok {
			ts.AdmitToExecP50 = micros(h.Quantile(0.50))
			ts.AdmitToExecP99 = micros(h.Quantile(0.99))
		}
		if h, ok := snap.Histograms[MetricDuration(t.ID)]; ok {
			ts.DurationP50 = micros(h.Quantile(0.50))
			ts.DurationP99 = micros(h.Quantile(0.99))
		}
	}
	slices.SortFunc(out, func(a, b TenantStatus) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// micros converts a histogram quantile to float64 microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// TenantID resolves a tenant name (for tests and metrics readers).
func (s *Service) TenantID(name string) (uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		return 0, ErrNoSuchTenant
	}
	return t.ID, nil
}

// Backlog returns the admitted-but-not-finished job count — the load
// signal the elastic controller scales membership on in service mode
// (elastic.Options.Backlog).
func (s *Service) Backlog() int64 { return s.backlog.Load() }

// WriteJobTrace exports the job's trace scope — its job.run span plus
// every task span transitively parented on it, across all ranks — as
// a Chrome trace_event document. The system must have been created
// with tracing enabled.
func (s *Service) WriteJobTrace(w io.Writer, id uint64) error {
	s.mu.Lock()
	j := s.state.job(id)
	var root trace.SpanID
	if j != nil {
		root = j.rootSpan
	}
	s.mu.Unlock()
	if j == nil {
		return ErrNoSuchJob
	}
	if root == 0 {
		return fmt.Errorf("jobs: job %d has no trace scope (tracing disabled?)", id)
	}
	tracers := s.sys.Tracers()
	if len(tracers) == 0 {
		return fmt.Errorf("jobs: system has no tracers")
	}
	return trace.WriteChromeSpans(w, trace.Descendants(trace.Merge(tracers...), root))
}

// unwindGrace bounds how long a shutdown waits for drivers whose task
// trees were cancelled to unwind and exit.
const unwindGrace = 5 * time.Second

// shutdown is the service's one way down; Drain, Suspend and Close are
// its entry points. Admission closes at once. Jobs then get the grace
// window to finish on their own — every admitted job for a drain, only
// the running ones for a restart, where the dispatcher starts no more
// and pending jobs simply stay in the registry for the next Open. What
// the window leaves over are the stragglers. A drain cancels them,
// pending and running alike, each with a terminal journal record; a
// restart cancels only the task trees of the running ones and marks
// them suspend, so their drivers requeue them without a record and
// recovery re-runs them. Then the drivers are awaited, the
// dispatcher is stopped, the exec observer uninstalled and the final
// registry compacted into the store. It returns the straggler count.
//
// The first shutdown decides the flavour; a later one (a deferred Close
// after a Drain or Suspend) does nothing — in particular it leaves the
// store alone, which the next incarnation may already own.
func (s *Service) shutdown(grace time.Duration, restart bool) int {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return 0
	}
	s.draining, s.restarting = true, restart
	if restart {
		close(s.suspendCh)
	}
	s.mu.Unlock()

	timer := time.NewTimer(grace)
	defer timer.Stop()
	for expired := false; !expired && !s.quiet(); {
		select {
		case <-s.settled:
		case <-timer.C:
			expired = true
		}
	}

	var stragglers []uint64
	s.mu.Lock()
	for _, j := range s.state.Jobs {
		if j.State == Running || (j.State == Pending && !restart) {
			j.suspend = restart
			stragglers = append(stragglers, j.ID)
		}
	}
	s.mu.Unlock()
	for _, id := range stragglers {
		if restart {
			s.sys.CancelJob(id)
		} else {
			s.Cancel(id)
		}
	}
	s.wait(unwindGrace)
	close(s.stopped)
	s.wgDisp.Wait()
	s.sys.SetExecObserver(nil)
	if s.store != nil {
		s.compact()
		s.store.Close()
	}
	return len(stragglers)
}

// quiet reports whether a shutdown has nothing left to wait for: no
// job is running and none will be started.
func (s *Service) quiet() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeTotal == 0 && (s.restarting || s.pendingTotal == 0)
}

// Drain gracefully shuts the service down: admission closes
// immediately (submissions fail with ErrDraining), already-admitted
// jobs keep dispatching and running. When every job finished within
// the timeout, Drain returns nil; otherwise the stragglers are
// cancelled and Drain reports how many.
func (s *Service) Drain(timeout time.Duration) error {
	if n := s.shutdown(timeout, false); n > 0 {
		return fmt.Errorf("jobs: drain timeout, cancelled %d unfinished jobs", n)
	}
	return nil
}

// Suspend is the restart-flavored shutdown of a durable service: the
// registry is preserved for the next Open rather than drained to
// empty. Admission closes with ErrServerRestarting, pending waits fail
// the same way, and running jobs get a grace window to finish
// naturally (journaling their terminal records). Stragglers are
// preserved for re-execution after recovery.
func (s *Service) Suspend(grace time.Duration) error {
	if s.store == nil {
		return fmt.Errorf("jobs: suspend needs a durable service (Config.StateDir)")
	}
	s.shutdown(grace, true)
	return nil
}

// Close stops the service without a grace window (tests / abrupt
// exits): unfinished jobs are cancelled and awaited briefly.
func (s *Service) Close() { s.shutdown(0, false) }

// wait blocks until every driver exited or the timeout passed.
func (s *Service) wait(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		s.wgDrv.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
	}
}
