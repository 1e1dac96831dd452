package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
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

// tenant is the service-side record of one tenant.
type tenant struct {
	name    string
	id      uint32
	quota   Quota
	pending []*job // admitted, not yet dispatched (FIFO)
	active  int    // running jobs
	bytes   int64  // estimated footprint of running jobs
	deficit int    // WRR dispatch deficit

	admitted, rejected           *metrics.Counter
	completed, failed, cancelled *metrics.Counter
	admitExec, duration          *metrics.Histogram
}

// job is the service-side record of one job.
type job struct {
	id     uint64
	ten    *tenant
	family string
	params []byte
	bytes  int64

	state     JobState
	result    string
	errStr    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	firstExec atomic.Int64 // unix nanos of the first task execution
	rootSpan  trace.SpanID
	cancelReq bool
	// suspend marks a running job whose task tree is being cancelled
	// by a restart-style shutdown: its driver reverts it to Pending
	// (no terminal journal record) so it re-runs after recovery.
	suspend bool
	// client/seq is the submit token the job was admitted under; a
	// client retrying the submission gets this job's ID back instead
	// of a duplicate admission, across restarts included.
	client string
	seq    uint64
	done   chan struct{}
}

// Service is the multi-tenant job service over one core.System.
// Create with New after System.Start (workloads registered before).
type Service struct {
	sys *core.System
	w   *Workloads
	cfg Config
	reg *metrics.Registry // locality 0, home of the jobs.* metrics

	mu           sync.Mutex
	tenants      map[string]*tenant
	tenantsByID  map[uint32]*tenant
	ring         []*tenant // WRR dispatch rotation
	cursor       int
	jobs         map[uint64]*job
	pendingTotal int
	activeTotal  int
	nextTenant   uint32
	draining     bool
	restarting   bool
	tokens       map[string]map[uint64]uint64 // client → seq → job ID

	nextJob atomic.Uint64
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
		reg:         sys.Metrics(0),
		tenants:     make(map[string]*tenant),
		tenantsByID: make(map[uint32]*tenant),
		jobs:        make(map[uint64]*job),
		tokens:      make(map[string]map[uint64]uint64),
		kick:        make(chan struct{}, 1),
		settled:     make(chan struct{}, 1),
		stopped:     make(chan struct{}),
		suspendCh:   make(chan struct{}),
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
		if err := s.restore(rec); err != nil {
			store.Close()
			return nil, err
		}
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
		now := time.Now()
		if j.firstExec.CompareAndSwap(0, now.UnixNano()) {
			j.ten.admitExec.Observe(now.Sub(j.submitted))
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

// restore rebuilds the registry from replayed state. Runs before the
// dispatcher starts, so no locking is needed.
func (s *Service) restore(rec *RecoveredState) error {
	info := RecoveryInfo{Replayed: rec.Replayed, TornTail: rec.TornTail}
	s.nextTenant = rec.NextTenant
	s.nextJob.Store(rec.NextJob)
	for _, tr := range rec.Tenants {
		if tr.Name == "" || s.tenantsByID[tr.ID] != nil {
			return fmt.Errorf("%w: invalid tenant record %q/%d", ErrJournalCorrupt, tr.Name, tr.ID)
		}
		t := s.bindTenant(tr.Name, tr.ID)
		t.quota = tr.Quota.normalized()
		info.Tenants++
	}
	for _, jr := range rec.Jobs { // ID order: FIFO re-admission
		t := s.tenantsByID[jr.Tenant]
		if t == nil {
			return fmt.Errorf("%w: job %d references unknown tenant %d", ErrJournalCorrupt, jr.ID, jr.Tenant)
		}
		j := &job{
			id: jr.ID, ten: t, family: jr.Family, params: jr.Params,
			bytes: jr.Bytes, submitted: nanosToTime(jr.Submitted),
			client: jr.Client, seq: jr.Seq,
			done: make(chan struct{}),
		}
		switch jr.State {
		case Done, Failed, Cancelled:
			j.state = jr.State
			j.result = jr.Result
			j.errStr = jr.Error
			j.started = nanosToTime(jr.Started)
			j.finished = nanosToTime(jr.Finished)
			close(j.done)
			info.Terminal++
		default:
			// Admitted (possibly mid-run at the crash): re-admit; the
			// family spec re-runs it from scratch under the same ID.
			j.state = Pending
			t.pending = append(t.pending, j)
			s.pendingTotal++
			s.backlog.Add(1)
			info.Readmitted++
		}
		s.jobs[j.id] = j
		if j.client != "" {
			m := s.tokens[j.client]
			if m == nil {
				m = make(map[uint64]uint64)
				s.tokens[j.client] = m
			}
			m[j.seq] = j.id
		}
	}
	s.reg.Counter(MetricRecoveredTerminal).Add(uint64(info.Terminal))
	s.reg.Counter(MetricRecoveredReadmitted).Add(uint64(info.Readmitted))
	s.recovered = info
	return nil
}

func nanosToTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func timeToNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// buildStateLocked reduces the registry to its persisted form (caller
// holds s.mu).
func (s *Service) buildStateLocked() storeState {
	st := storeState{NextTenant: s.nextTenant, NextJob: s.nextJob.Load()}
	for _, t := range s.ring {
		st.Tenants = append(st.Tenants, tenantRec{Name: t.name, ID: t.id, Quota: t.quota})
	}
	ids := make([]uint64, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	for _, id := range ids {
		j := s.jobs[id]
		jr := jobRec{
			ID: j.id, Tenant: j.ten.id, Family: j.family, Params: j.params,
			Bytes: j.bytes, State: j.state, Result: j.result, Error: j.errStr,
			Submitted: timeToNanos(j.submitted), Started: timeToNanos(j.started),
			Finished: timeToNanos(j.finished), Client: j.client, Seq: j.seq,
		}
		st.Jobs = append(st.Jobs, jr)
	}
	return st
}

// journalLocked appends one record under s.mu; append order therefore
// matches registry mutation order. Append errors on non-admission
// records are swallowed (durability degrades, the live service keeps
// running); the admission path checks explicitly and refuses instead.
func (s *Service) journalLocked(body []byte) {
	if s.store == nil {
		return
	}
	s.store.Append(body)
}

// compact rewrites the journal as the current registry. State build and
// Store.Compact share one hold of s.mu, the lock every append happens
// under: a record appended between the two would be in neither the new
// generation nor, once the old one is removed, anywhere on disk.
func (s *Service) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Compact(s.buildStateLocked())
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
	t, ok := s.tenants[name]
	if !ok {
		t = s.newTenantLocked(name)
	}
	t.quota = q.normalized()
	s.journalLocked(appendTenantRec(nil, tenantRec{Name: t.name, ID: t.id, Quota: t.quota}))
	return nil
}

// bindTenant wires a tenant record with its per-tenant metrics under a
// fixed ID (shared by fresh registration and recovery).
func (s *Service) bindTenant(name string, id uint32) *tenant {
	t := &tenant{
		name:      name,
		id:        id,
		quota:     s.cfg.DefaultQuota.normalized(),
		admitted:  s.reg.Counter(MetricAdmitted(id)),
		rejected:  s.reg.Counter(MetricRejected(id)),
		completed: s.reg.Counter(MetricCompleted(id)),
		failed:    s.reg.Counter(MetricFailed(id)),
		cancelled: s.reg.Counter(MetricCancelled(id)),
		admitExec: s.reg.Histogram(MetricAdmitToExec(id)),
		duration:  s.reg.Histogram(MetricDuration(id)),
	}
	s.tenants[name] = t
	s.tenantsByID[id] = t
	s.ring = append(s.ring, t)
	return t
}

// newTenantLocked allocates and journals a tenant; s.mu must be held.
func (s *Service) newTenantLocked(name string) *tenant {
	s.nextTenant++
	t := s.bindTenant(name, s.nextTenant)
	s.journalLocked(appendTenantRec(nil, tenantRec{Name: t.name, ID: t.id, Quota: t.quota}))
	return t
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
		t = s.newTenantLocked(tenantName)
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
	if len(t.pending) >= t.quota.MaxPending {
		t.rejected.Inc()
		return 0, fmt.Errorf("%w: tenant %q has %d pending (max %d)",
			ErrTenantPending, tenantName, len(t.pending), t.quota.MaxPending)
	}
	if t.quota.MaxBytes > 0 {
		committed := t.bytes
		for _, p := range t.pending {
			committed += p.bytes
		}
		if committed+bytes > t.quota.MaxBytes {
			t.rejected.Inc()
			return 0, fmt.Errorf("%w: tenant %q committed %d bytes + job %d > budget %d",
				ErrTenantMemory, tenantName, committed, bytes, t.quota.MaxBytes)
		}
	}

	j := &job{
		id:        s.nextJob.Add(1),
		ten:       t,
		family:    spec.Family,
		params:    params,
		bytes:     bytes,
		state:     Pending,
		submitted: time.Now(),
		client:    tok.Client,
		seq:       tok.Seq,
		done:      make(chan struct{}),
	}
	// The admission record must be durable before the ack: journal
	// first (under FsyncEvery, Append returns only after the fsync),
	// and refuse the admission if the journal does.
	if s.store != nil {
		if jerr := s.store.Append(appendAdmitRec(nil, jobRec{
			ID: j.id, Tenant: t.id, Family: j.family, Params: j.params,
			Bytes: j.bytes, Submitted: timeToNanos(j.submitted),
			Client: j.client, Seq: j.seq,
		})); jerr != nil {
			t.rejected.Inc()
			return 0, jerr
		}
	}
	s.jobs[j.id] = j
	t.pending = append(t.pending, j)
	s.pendingTotal++
	t.admitted.Inc()
	s.backlog.Add(1)
	if tok.Client != "" {
		m := s.tokens[tok.Client]
		if m == nil {
			m = make(map[uint64]uint64)
			s.tokens[tok.Client] = m
		}
		m[tok.Seq] = j.id
	}
	s.nudge()
	return j.id, nil
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
		t := j.ten
		j.state = Running
		j.started = time.Now()
		t.active++
		t.bytes += j.bytes
		s.pendingTotal--
		s.activeTotal++
		s.journalLocked(appendStartRec(nil, j.id, timeToNanos(j.started)))
		s.wgDrv.Add(1)
		go s.drive(j)
	}
}

// dispatchableLocked reports whether a tenant has a startable job.
func (s *Service) dispatchableLocked(t *tenant) bool {
	if len(t.pending) == 0 || t.active >= t.quota.MaxActive {
		return false
	}
	if t.quota.MaxBytes > 0 && t.bytes+t.pending[0].bytes > t.quota.MaxBytes {
		return false
	}
	return true
}

// nextDispatchLocked picks the next job under the WRR rotation; nil
// when no tenant can start one.
func (s *Service) nextDispatchLocked() *job {
	n := len(s.ring)
	for i := 0; i < n; i++ {
		if s.cursor >= n {
			s.cursor = 0
		}
		t := s.ring[s.cursor]
		if !s.dispatchableLocked(t) {
			t.deficit = 0
			s.cursor++
			continue
		}
		if t.deficit <= 0 {
			t.deficit = t.quota.Weight
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
		sp = tr.Begin("job.run", fmt.Sprintf("%s/%s#%d", t.name, j.family, j.id), 0)
		sp.SetTask(j.id)
		s.mu.Lock()
		j.rootSpan = sp.SpanID()
		s.mu.Unlock()
	}
	s.byJob.Store(j.id, j)
	result, err := s.w.run(jobContext{tenant: t.id, job: j.id, span: j.rootSpan}, j.family, j.params)
	s.byJob.Delete(j.id)

	s.mu.Lock()
	cancelled := j.cancelReq || sched.IsJobCancelled(err)
	if j.suspend && err != nil && !j.cancelReq {
		// Restart-style shutdown killed this job's task tree. It is
		// NOT terminal: revert to the admitted state with no journal
		// record, so recovery re-admits and re-runs it. Waiters were
		// already failed with ErrServerRestarting via the suspend
		// channel; the done channel stays open.
		j.state = Pending
		j.started = time.Time{}
		j.finished = time.Time{}
		j.errStr = ""
		j.firstExec.Store(0)
		t.active--
		t.bytes -= j.bytes
		s.activeTotal--
		s.pendingTotal++
		s.mu.Unlock()
		if sp != nil {
			sp.SetErr(err)
			sp.End()
		}
		return
	}
	j.finished = time.Now()
	switch {
	case cancelled:
		j.state = Cancelled
		if err != nil {
			j.errStr = err.Error()
		}
		t.cancelled.Inc()
		s.journalLocked(appendTerminalRec(nil, recCancel, j.id, j.errStr, timeToNanos(j.finished)))
	case err != nil:
		j.state = Failed
		j.errStr = err.Error()
		t.failed.Inc()
		s.journalLocked(appendTerminalRec(nil, recFail, j.id, j.errStr, timeToNanos(j.finished)))
	default:
		j.state = Done
		j.result = result
		t.completed.Inc()
		s.journalLocked(appendTerminalRec(nil, recDone, j.id, j.result, timeToNanos(j.finished)))
	}
	t.active--
	t.bytes -= j.bytes
	s.activeTotal--
	dur := j.finished.Sub(j.submitted)
	s.mu.Unlock()

	t.duration.Observe(dur)
	if sp != nil {
		sp.SetErr(err)
		sp.End()
	}
	s.backlog.Add(-1)
	close(j.done)
	if s.store != nil && s.store.ShouldCompact() {
		s.compact() // on failure the old generation stays in use
	}
	s.nudge()
}

// Cancel cancels a job: a pending job leaves the queue immediately; a
// running job has its task tree cancelled on every locality (queued
// tasks purge, stragglers die at the execution gate, recovery will
// not resurrect it) and reaches the Cancelled state once the tree
// unwound. Cancelling a finished job is a no-op.
func (s *Service) Cancel(id uint64) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNoSuchJob
	}
	if s.restarting {
		// Suspend is tearing running jobs down without terminal records;
		// a concurrent cancel would race the revert-to-Pending path.
		s.mu.Unlock()
		return ErrServerRestarting
	}
	switch j.state {
	case Pending:
		t := j.ten
		for i, p := range t.pending {
			if p == j {
				t.pending = append(t.pending[:i], t.pending[i+1:]...)
				break
			}
		}
		j.state = Cancelled
		j.finished = time.Now()
		s.pendingTotal--
		t.cancelled.Inc()
		s.journalLocked(appendTerminalRec(nil, recCancel, j.id, "", timeToNanos(j.finished)))
		s.mu.Unlock()
		s.backlog.Add(-1)
		close(j.done)
		s.nudge()
		return nil
	case Running:
		j.cancelReq = true
		s.mu.Unlock()
		s.sys.CancelJob(id)
		return nil
	default:
		s.mu.Unlock()
		return nil
	}
}

// Wait blocks until the job finished and returns its final status. A
// restart-style shutdown (Suspend) fails pending waits with
// ErrServerRestarting: the job is not terminal — it will re-run after
// recovery — so no final status exists yet.
func (s *Service) Wait(id uint64) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
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

// jobDone exposes a job's completion channel to the protocol server so
// a blocked wait can also observe connection loss (nil if unknown).
func (s *Service) jobDone(id uint64) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	return j.done
}

// Suspended returns a channel closed when the service enters a
// restart-style shutdown (Suspend); waiters should fail with
// ErrServerRestarting and retry after the daemon comes back.
func (s *Service) Suspended() <-chan struct{} { return s.suspendCh }

// Status returns a point-in-time snapshot of one job.
func (s *Service) Status(id uint64) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNoSuchJob
	}
	return s.statusLocked(j), nil
}

func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID: j.id, Tenant: j.ten.name, Family: j.family,
		State: j.state.String(), Result: j.result, Error: j.errStr,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
	if ns := j.firstExec.Load(); ns != 0 {
		st.FirstExec = time.Unix(0, ns)
	}
	return st
}

// List returns snapshots of all jobs, ordered by ID.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Tenants returns per-tenant snapshots including the tenant's metrics
// view (counters, scheduler-side task executions, latency quantiles),
// ordered by tenant ID.
func (s *Service) Tenants() []TenantStatus {
	s.mu.Lock()
	tens := make([]*tenant, len(s.ring))
	copy(tens, s.ring)
	type counts struct{ pending, active int }
	live := make(map[uint32]counts, len(tens))
	for _, t := range tens {
		live[t.id] = counts{pending: len(t.pending), active: t.active}
	}
	s.mu.Unlock()

	snap := s.reg.Snapshot()
	out := make([]TenantStatus, 0, len(tens))
	for _, t := range tens {
		ts := TenantStatus{
			Name: t.name, ID: t.id, Weight: t.quota.Weight,
			Pending: live[t.id].pending, Active: live[t.id].active,
			Admitted:  t.admitted.Value(),
			Rejected:  t.rejected.Value(),
			Completed: t.completed.Value(),
			Failed:    t.failed.Value(),
			Cancelled: t.cancelled.Value(),
		}
		for r := 0; r < s.sys.Size(); r++ {
			ts.TasksExecuted += s.sys.Metrics(r).CounterValue(sched.TenantExecutedMetric(t.id))
		}
		if h, ok := snap.Histograms[MetricAdmitToExec(t.id)]; ok {
			ts.AdmitToExecP50 = micros(h.Quantile(0.50))
			ts.AdmitToExecP99 = micros(h.Quantile(0.99))
		}
		if h, ok := snap.Histograms[MetricDuration(t.id)]; ok {
			ts.DurationP50 = micros(h.Quantile(0.50))
			ts.DurationP99 = micros(h.Quantile(0.99))
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
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
	return t.id, nil
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
	j, ok := s.jobs[id]
	var root trace.SpanID
	if ok {
		root = j.rootSpan
	}
	s.mu.Unlock()
	if !ok {
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
// them suspend, so their drivers revert them to Pending without a
// record and recovery re-runs them. Then the drivers are awaited, the
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
	for id, j := range s.jobs {
		if j.state == Running || (j.state == Pending && !restart) {
			j.suspend = restart
			stragglers = append(stragglers, id)
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
