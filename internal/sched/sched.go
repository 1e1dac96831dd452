// Package sched implements the data-requirement-aware task scheduler
// of the AllScale runtime prototype (Section 3.2, Algorithm 2).
//
// Tasks are specified through kinds registered identically on every
// process (the role of the AllScale compiler's generated code,
// Section 3.3). Each kind offers up to two variants (Definition 2.3):
// a sequential Process variant, annotated with a data-requirement
// function (Definition 2.7), and an optional Split variant that
// divides the task and spawns sub-tasks (the prec operator pattern).
//
// When a task is scheduled, a customizable policy first selects the
// variant; the task is then dispatched to a process fulfilling all its
// data requirements or, failing that, all its write requirements, or
// — if neither exists — to a locality chosen by the policy
// (Algorithm 2 lines 3–13).
package sched

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/metrics"
	"allscale/internal/runtime"
	"allscale/internal/trace"
	"allscale/internal/wire"
)

// Variant names the implementation alternative picked by the policy.
type Variant int

const (
	// VariantProcess is the sequential implementation executing under
	// acquired data requirements.
	VariantProcess Variant = iota
	// VariantSplit is the parallel implementation dividing the task.
	VariantSplit
)

func (v Variant) String() string {
	if v == VariantSplit {
		return "split"
	}
	return "process"
}

// TaskSpec is the serializable description of a spawned task.
type TaskSpec struct {
	ID   uint64
	Kind string
	Args []byte
	// Depth is the task's depth in the spawn tree, Path/PathLen its
	// position: Path holds PathLen branch bits (0 = left), most
	// significant first. The default policy maps path prefixes onto
	// the process space, spreading the task tree over the cluster.
	Depth   int
	Path    uint64
	PathLen int
	Origin  int
	// Promise names the spawner's future once the task has left the rank
	// it was spawned on (ship names it there); zero until then.
	Promise runtime.PromiseID
	// Span is the task.schedule span that placed this task; the
	// executing rank parents its task.exec/task.split span on it, so
	// the causal chain survives remote placement (0 = untraced).
	Span uint64
	// Tenant and Job scope the task to a job-service submission
	// (cancel.go); zero for tasks spawned outside service mode. Both
	// travel on the wire so shipped, stolen and respawned tasks keep
	// their per-tenant accounting and cancellation scope.
	Tenant uint32
	Job    uint64
}

// Kind is one registered task type with its variants.
type Kind struct {
	Name string
	// Process is the mandatory sequential variant; its result value
	// is wire-encoded into the task's future (wire.Encode: int64,
	// uint64 and string results have a builtin binary form).
	Process func(ctx *Ctx) (any, error)
	// Reqs computes the Process variant's data requirements from the
	// task arguments; nil means no requirements.
	Reqs func(args []byte) []dim.Requirement
	// Split is the optional parallel variant.
	Split func(ctx *Ctx) (any, error)
	// CanSplit reports whether the task is still divisible; nil with
	// a non-nil Split means always divisible.
	CanSplit func(args []byte) bool
}

// Policy is the customizable scheduling policy of Algorithm 2.
type Policy interface {
	// PickVariant selects the variant to be processed (line 3).
	PickVariant(spec *TaskSpec, splittable bool, size int) Variant
	// PickTarget selects a locality for a task without data-placement
	// constraints (line 12).
	PickTarget(spec *TaskSpec, size int) int
}

// Registry names under which the scheduler publishes its metrics.
const (
	MetricSpawned  = "sched.spawned"
	MetricExecuted = "sched.executed"
	MetricSplits   = "sched.splits"
	// Placements: kept local, shipped, covering every requirement
	// (Algorithm 2 line 6), covering the writes (line 9), by the policy
	// (line 13).
	MetricLocalPlaced   = "sched.local_placed"
	MetricRemotePlaced  = "sched.remote_placed"
	MetricCoveredAll    = "sched.covered_all"
	MetricCoveredWrite  = "sched.covered_write"
	MetricPolicyPlaced  = "sched.policy_placed"
	MetricStealAttempts = "sched.steal_attempts"
	MetricSteals        = "sched.steals"
	MetricStolenFrom    = "sched.stolen_from"
	MetricTaskExec      = "sched.task_exec"
	MetricRespawns      = "sched.respawns"
	// MetricWorkerIdleUs accumulates microseconds workers spent parked.
	MetricWorkerIdleUs = "sched.worker_idle_us"
	// MetricStealBatch / MetricShipBatch are value histograms of the
	// task counts per steal grant and per placement frame.
	MetricStealBatch = "sched.steal_batch"
	MetricShipBatch  = "sched.ship_batch"
	// MetricQueueDepthPrefix prefixes the per-worker deque depth
	// gauges ("sched.queue_depth.w0", "sched.queue_depth.w1", ...).
	MetricQueueDepthPrefix = "sched.queue_depth.w"
	// MetricPercolateToData / MetricPercolateToTask count percolation
	// decisions when no rank covers the requirements: the task shipped
	// to the majority owner (work moves to data) vs. kept local with
	// fragment migration accepted (data moves to work).
	MetricPercolateToData = "sched.percolate.to_data"
	MetricPercolateToTask = "sched.percolate.to_task"
)

// Scheduler is the per-locality task scheduler.
type Scheduler struct {
	loc    *runtime.Locality
	mgr    *dim.Manager
	policy Policy

	// kinds is replaced whole, under kindsMu, by Register: a lookup takes
	// no lock.
	kindsMu sync.Mutex
	kinds   atomic.Pointer[map[string]*Kind]

	seq     atomic.Uint64
	running atomic.Int64
	queued  atomic.Int64

	// queue is the work-stealing run queue every variant executes
	// through (steal.go).
	queue *queueState

	// inflight records every task this rank handed to a peer — placed,
	// forwarded or granted — so the recovery coordinator can recover
	// tasks lost on a dead rank (recovery.go in this package).
	inflightMu sync.Mutex
	inflight   inflightRegistry

	// tenants caches the per-tenant counters (uint32 → *tenantCounters),
	// cancel is the bounded cancelled-job set, and execObs an optional
	// per-execution callback — all in cancel.go.
	tenants sync.Map
	cancel  cancelState
	execObs atomic.Pointer[func(job uint64)]

	// shippers coalesce the tasks bound for each destination (ship.go).
	shippers []shipper

	// stats are counters cached from the locality registry, which is
	// the single source of truth.
	stats struct {
		spawned, executed, splits           *metrics.Counter
		localPlaced, remotePlaced           *metrics.Counter
		coveredAll, coveredWrite, polPlaced *metrics.Counter
		percToData, percToTask              *metrics.Counter
		stealAttempts, stolen, stolenFrom   *metrics.Counter
		respawns, workerIdleUs              *metrics.Counter
		cancelledTasks, cancelledRespawns   *metrics.Counter
		stealBatch, shipBatch               *metrics.Histogram
	}
	execHist *metrics.Histogram
}

// task is one task on this rank, from its spawn or arrival until it
// completes or leaves: one object (a fork's child lives in its frame,
// fork.go) holding the spec, the chosen variant, the kind, the future of
// its result and the context its body runs with. Nothing copies it.
type task struct {
	spec    TaskSpec
	variant Variant
	// kind is resolved by assign; a task that arrived from a peer looks
	// it up when it runs.
	kind *Kind
	// fut is the spawner's future, which leave resolves and names.
	fut runtime.Future
	ctx Ctx
	// sp is the task.enqueue span while the task sits in a deque.
	sp *trace.Span
	// carry is the origin's evictions for the task's write requirements
	// (dim.Manager.Carry), for the frame that ships it.
	carry []dim.Carried
	// holds says the task holds claims it brought here
	// (dim.Manager.TakeCarried) or its acquisition's locks: leave
	// releases them.
	holds bool
}

// named reports whether the task's future has a name (leave gave it
// one as it shipped the task, here or on the rank the task came from).
func (t *task) named() bool { return t.spec.Promise.Seq != 0 }

// runArgs is one task inside a runBatch frame (ship.go). Granted marks
// a task a victim let go in answer to a steal hint, as opposed to one
// placed here: the receiver counts it as stolen. Carried holds the drops
// the origin served for the task's write requirements as it placed it
// (dim.Manager.Carry).
type runArgs struct {
	Spec    TaskSpec
	Variant Variant
	Granted bool
	Carried []dim.Carried
}

// New creates the scheduler of one locality and starts its workers,
// the executor goroutines every variant runs on; their number must be
// positive. Kinds must be registered (identically everywhere) before
// tasks are spawned.
func New(loc *runtime.Locality, mgr *dim.Manager, policy Policy, workers int) *Scheduler {
	if workers <= 0 {
		panic(fmt.Sprintf("sched: New needs workers > 0, got %d", workers))
	}
	s := &Scheduler{
		loc: loc, mgr: mgr, policy: policy,
		inflight: inflightRegistry{m: make(map[uint64]inflightEntry), sweepAt: inflightLimit},
		shippers: make([]shipper, loc.Size()),
	}
	s.kinds.Store(&map[string]*Kind{})
	reg := loc.Metrics()
	s.stats.spawned = reg.Counter(MetricSpawned)
	s.stats.executed = reg.Counter(MetricExecuted)
	s.stats.splits = reg.Counter(MetricSplits)
	s.stats.localPlaced = reg.Counter(MetricLocalPlaced)
	s.stats.remotePlaced = reg.Counter(MetricRemotePlaced)
	s.stats.coveredAll = reg.Counter(MetricCoveredAll)
	s.stats.coveredWrite = reg.Counter(MetricCoveredWrite)
	s.stats.polPlaced = reg.Counter(MetricPolicyPlaced)
	s.stats.percToData = reg.Counter(MetricPercolateToData)
	s.stats.percToTask = reg.Counter(MetricPercolateToTask)
	s.stats.stealAttempts = reg.Counter(MetricStealAttempts)
	s.stats.stolen = reg.Counter(MetricSteals)
	s.stats.stolenFrom = reg.Counter(MetricStolenFrom)
	s.stats.respawns = reg.Counter(MetricRespawns)
	s.stats.workerIdleUs = reg.Counter(MetricWorkerIdleUs)
	s.stats.cancelledTasks = reg.Counter(MetricCancelledTasks)
	s.stats.cancelledRespawns = reg.Counter(MetricCancelledRespawns)
	s.stats.stealBatch = reg.Histogram(MetricStealBatch)
	s.stats.shipBatch = reg.Histogram(MetricShipBatch)
	s.execHist = reg.Histogram(MetricTaskExec)
	// The queue comes first: the handler below enqueues.
	s.startQueue(workers)
	// A ship is an acknowledged call, served in frame order (accept): the
	// ack only confirms acceptance (execution continues asynchronously),
	// and an error tells the origin to run the tasks itself (ship.go).
	loc.HandleInline(methodRunBatch, func(from int, body []byte) ([]byte, error) {
		var b runBatch
		var d wire.Decoder
		if err := d.Reset(body); err != nil {
			return nil, err
		}
		if b.UnmarshalWire(&d); d.Finish() != nil {
			return nil, d.Finish()
		}
		return nil, s.accept(from, b.Tasks)
	})
	return s
}

// forward places a task that must not stay on this rank onto the next
// usable member; with no member left it runs locally after all —
// losing the task would be worse.
func (s *Scheduler) forward(t *task) {
	target := s.nextLive(s.loc.Rank())
	if target == s.loc.Rank() {
		s.enqueueAt(-1, t)
		return
	}
	s.stats.remotePlaced.Inc()
	s.ship(target, false, t)
}

// RedistributeQueued empties the run queue and re-places every not
// yet started task; with the rank Draining in its own view the
// placements land on the remaining members. Running tasks are unaffected — they finish
// here (task-private state cannot migrate, Section 3.2).
func (s *Scheduler) RedistributeQueued() {
	for _, t := range s.drainQueues() {
		s.forward(t)
	}
}

// Register installs a task kind. It may run at any time: it publishes
// a copy of the kinds with k added.
func (s *Scheduler) Register(k *Kind) {
	s.kindsMu.Lock()
	defer s.kindsMu.Unlock()
	old := *s.kinds.Load()
	if _, dup := old[k.Name]; dup {
		panic(fmt.Sprintf("sched: kind %q registered twice", k.Name))
	}
	if k.Process == nil {
		panic(fmt.Sprintf("sched: kind %q lacks the mandatory process variant", k.Name))
	}
	kinds := maps.Clone(old)
	kinds[k.Name] = k
	s.kinds.Store(&kinds)
}

func (s *Scheduler) kind(name string) (*Kind, error) {
	k, ok := (*s.kinds.Load())[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown task kind %q at rank %d", name, s.loc.Rank())
	}
	return k, nil
}

// Rank returns the hosting locality's rank.
func (s *Scheduler) Rank() int { return s.loc.Rank() }

// Size returns the number of localities.
func (s *Scheduler) Size() int { return s.loc.Size() }

// Manager returns the data item manager of this locality.
func (s *Scheduler) Manager() *dim.Manager { return s.mgr }

// Load returns the locality's current queued+running task count.
func (s *Scheduler) Load() int64 { return s.queued.Load() + s.running.Load() }

// Spawn schedules a new root task of the given kind ((spawn)
// transition) and returns the future of its result.
func (s *Scheduler) Spawn(kind string, args any) (*runtime.Future, error) {
	return s.SpawnJob(kind, args, 0, 0, 0)
}

// SpawnJob schedules a root task scoped to a job-service tenant and
// job: the tags propagate to every descendant task, putting them into
// the job's cancellation scope and the tenant's counters (cancel.go).
// parent optionally roots the task's span chain in a job-level span.
func (s *Scheduler) SpawnJob(kind string, args any, tenant uint32, job uint64, parent trace.SpanID) (*runtime.Future, error) {
	t := &task{spec: TaskSpec{Tenant: tenant, Job: job}}
	if _, err := s.spawnAt(t, -1, false, kind, args, parent); err != nil {
		return nil, err
	}
	return &t.fut, nil
}

// spawnAt schedules t, whose position in the spawn tree and job tags
// its spawner has set. parent is the span of the spawning context (the
// enclosing task's exec/split span, or 0 for root spawns), rooting the
// task's spawn→schedule→exec span chain in its creator. w is the worker
// the spawning task occupies (-1 for a spawn from outside any task): a
// child that stays on this rank goes to the tail of that worker's own
// deque, where its parent's join finds it first — unless inline asks
// for it, when a task that stays is not queued at all and spawnAt
// reports that the caller is to run it now (Ctx.Fork's left child).
func (s *Scheduler) spawnAt(t *task, w int, inline bool, kind string, args any, parent trace.SpanID) (runNow bool, err error) {
	body, err := wire.Encode(args)
	if err != nil {
		return false, fmt.Errorf("sched: encode args of %q: %w", kind, err)
	}
	spec := &t.spec
	spec.ID = uint64(s.loc.Rank())<<32 | s.seq.Add(1)
	spec.Kind = kind
	spec.Args = body
	spec.Origin = s.loc.Rank()
	s.stats.spawned.Inc()
	tr := s.loc.Tracer()
	spawnSp := tr.Begin("task.spawn", kind, parent)
	spawnSp.SetTask(spec.ID)
	schedSp := tr.Begin("task.schedule", kind, spawnSp.SpanID())
	schedSp.SetTask(spec.ID)
	spec.Span = uint64(schedSp.SpanID())
	here, err := s.assign(t)
	if here && !inline {
		s.enqueueAt(w, t)
	}
	schedSp.SetErr(err)
	schedSp.End()
	spawnSp.End()
	return here && inline, err
}

// assign implements ASSIGN_TO_NODE of Algorithm 2: it picks t's
// variant and rank, ships the task if the rank is another one, and
// reports whether it stays here — for the caller to queue or run.
func (s *Scheduler) assign(t *task) (here bool, err error) {
	spec := &t.spec
	k, err := s.kind(spec.Kind)
	if err != nil {
		return false, err
	}
	t.kind = k
	// Line 3. The policy is asked before the kind: every policy keeps an
	// indivisible task whole, so CanSplit — a decode of the arguments —
	// is consulted only for a task the policy would split.
	t.variant = VariantProcess
	if k.Split != nil && s.policy.PickVariant(spec, true, s.loc.Size()) == VariantSplit &&
		(k.CanSplit == nil || k.CanSplit(spec.Args)) {
		t.variant = VariantSplit
	}

	target, covered := -1, false
	var reqs []dim.Requirement
	if t.variant == VariantProcess && k.Reqs != nil {
		reqs = k.Reqs(spec.Args)
		target, covered = s.placeByData(reqs)
	}
	if target < 0 {
		target = s.policy.PickTarget(spec, s.loc.Size()) // line 12
		s.stats.polPlaced.Inc()
	}
	// Dead, suspect and non-member ranks are excluded from placement:
	// remap to the next usable rank (placeByData already skips them as
	// owners). Suspicion is a pause, not a verdict — it lifts as soon
	// as a confirmation ping succeeds; a latent or departed rank is
	// outside the membership entirely.
	if !s.placeable(target) {
		target = s.nextLive(target)
	}

	if target == s.loc.Rank() {
		s.stats.localPlaced.Inc()
		return true, nil
	}
	s.stats.remotePlaced.Inc()
	// A target that holds the task's write regions would have this rank
	// drop its copies of them: the drops are served now and ride along.
	if covered {
		t.carry = s.mgr.Carry(target, reqs)
	}
	// ship names the task's future, records the task for recovery,
	// coalesces bursts into batched sched.runb frames, confirms them
	// asynchronously, and owns the failure policy: local fallback only
	// when the RPC layer gives the target up, arbitrated against
	// recovery via takeInflight (ship.go).
	s.ship(target, false, t)
	return false, nil
}

// Percolation cost model (DESIGN.md §6f), calibrated from the measured
// constants of EXPERIMENTS.md: shipping a task is one batched
// placement frame plus remote spawn bookkeeping (~13µs per task at the
// E12 fine-grained-stencil operating point), while migrating fragment
// data costs per-element transfer plus index/report upkeep
// (~25ns/element on the loopback fabric, E9).
const (
	taskShipNs = 13000
	elemMoveNs = 25
)

// placeByData implements lines 4–11 of Algorithm 2 plus percolation:
// it returns the rank to run the task at, or -1 when the requirements
// impose no constraint (the policy decides — line 12), and whether that
// rank covers every write requirement (tiers 1 and 2). One batched,
// cache-served resolution covers every requirement; the full owners
// map then answers all three placement tiers without further RPCs:
//
//  1. a rank covering all requirements (line 4);
//  2. a rank covering all write requirements (line 7);
//  3. no covering rank: percolate — ship the task to the rank owning
//     the most required bytes (work moves to data) unless the map
//     says migrating the minority remainder is cheaper than a task
//     ship (data moves to work, locally).
func (s *Scheduler) placeByData(reqs []dim.Requirement) (rank int, covered bool) {
	active := reqs[:0:0]
	for _, rq := range reqs {
		if !rq.Region.IsEmpty() {
			active = append(active, rq)
		}
	}
	if len(active) == 0 {
		return -1, false
	}
	ownerMaps, err := s.mgr.OwnersMulti(active)
	if err != nil {
		return -1, false
	}

	// Per rank: the coverage of the requirement at hand, whether the rank
	// has covered every requirement so far (every write requirement so
	// far), and the owned element count driving the percolation tiers.
	tally := make([]rankTally, s.loc.Size())
	for i := range tally {
		tally[i].all, tally[i].write = true, true
	}
	wroteConstraint := false
	var total int64
	for i, rq := range active {
		for r := range tally {
			tally[r].cov = nil
		}
		for _, o := range ownerMaps[i] {
			if o.Rank < 0 || o.Rank >= len(tally) {
				continue
			}
			if t := &tally[o.Rank]; t.cov == nil {
				t.cov = o.Region
			} else {
				t.cov = t.cov.Union(o.Region)
			}
		}
		size := rq.Region.Size()
		total += size
		for r := range tally {
			t := &tally[r]
			covering := false
			if t.cov != nil && s.placeable(r) {
				n := t.cov.Intersect(rq.Region).Size()
				t.owned += n
				covering = n == size
			}
			t.all = t.all && covering
			if rq.Mode == dim.Write {
				t.write = t.write && covering
			}
		}
		wroteConstraint = wroteConstraint || rq.Mode == dim.Write
	}

	if rank := pickCandidate(tally, s.loc.Rank(), func(t *rankTally) bool { return t.all }); rank >= 0 { // line 4
		s.stats.coveredAll.Inc()
		return rank, true
	}
	if wroteConstraint {
		if rank := pickCandidate(tally, s.loc.Rank(), func(t *rankTally) bool { return t.write }); rank >= 0 { // line 7
			s.stats.coveredWrite.Inc()
			return rank, true
		}
	}

	// Percolation: no rank covers the constraints. Nothing owned
	// anywhere (pure first-touch) stays with the policy's spreading.
	best, bestOwned := -1, int64(0)
	for r := range tally {
		if n := tally[r].owned; n > bestOwned {
			best, bestOwned = r, n
		}
	}
	if best < 0 {
		return -1, false
	}
	// Cost of shipping the task to the majority owner: one task ship
	// plus pulling what that rank is missing. Cost of keeping it here:
	// pulling everything this rank is missing.
	toData := taskShipNs + (total-bestOwned)*elemMoveNs
	if best == s.loc.Rank() {
		toData -= taskShipNs // already here
	}
	toTask := (total - tally[s.loc.Rank()].owned) * elemMoveNs
	if toTask < toData {
		s.stats.percToTask.Inc()
		return s.loc.Rank(), false
	}
	s.stats.percToData.Inc()
	return best, false
}

// rankTally is what placeByData knows of one rank.
type rankTally struct {
	cov        dataitem.Region // of the requirement at hand; nil: none
	all, write bool            // covers every (every write) requirement so far
	owned      int64           // required elements held, over all requirements
}

// pickCandidate prefers the local rank, then the smallest one that is a
// candidate.
func pickCandidate(tally []rankTally, local int, cand func(*rankTally) bool) int {
	if cand(&tally[local]) {
		return local
	}
	for r := range tally {
		if cand(&tally[r]) {
			return r
		}
	}
	return -1
}

// executeNow runs a task's variant immediately on the calling
// goroutine, which is queue worker `worker` — a task popped from a deque
// and the left child of a fork its spawner runs inline (Ctx.Fork) alike.
// The exec span ends (and a process variant's exec-latency sample is
// taken) before the task's future is fulfilled, so a waiter unblocked by
// the result observes the span as archived.
func (s *Scheduler) executeNow(t *task, worker int) {
	spec := &t.spec
	// Cancellation gate: tasks of a cancelled job never run, wherever
	// they arrive from (local queue, shipped batch, steal grant,
	// respawn). Failing the future unwinds the job's waiters.
	if spec.Job != 0 && s.jobCancelled(spec.Job) {
		s.leave(t, failed(s.countCancelled(spec)))
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	s.stats.executed.Inc()
	if spec.Tenant != 0 {
		s.tenantCounters(spec.Tenant).executed.Inc()
	}
	if spec.Job != 0 {
		if fn := s.execObs.Load(); fn != nil {
			(*fn)(spec.Job)
		}
	}

	name := "task.exec"
	if t.variant == VariantSplit {
		name = "task.split"
	}
	sp := s.loc.Tracer().Begin(name, spec.Kind, trace.SpanID(spec.Span))
	sp.SetTask(spec.ID)
	t.ctx = Ctx{sched: s, t: t, span: sp.SpanID(), worker: worker}
	result, err := s.runVariant(t)
	sp.SetErr(err)
	sp.End()
	s.leave(t, ran(result, err))
}

// runVariant executes the variant body, acquiring process-variant data
// requirements around it; the acquire span and child spawns attach to
// the exec span in t.ctx. Only a process variant is timed
// (sched.task_exec): a split's time is its subtree's.
func (s *Scheduler) runVariant(t *task) (any, error) {
	spec, k := &t.spec, t.kind
	if k == nil {
		var err error
		if k, err = s.kind(spec.Kind); err != nil {
			return nil, err
		}
	}
	if t.variant == VariantSplit {
		s.stats.splits.Inc()
		return k.Split(&t.ctx)
	}
	start := time.Now()
	defer func() { s.execHist.Observe(time.Since(start)) }()
	var reqs []dim.Requirement
	if k.Reqs != nil {
		reqs = k.Reqs(spec.Args)
	}
	if len(reqs) > 0 {
		// A lock wait ends when the task's job is cancelled (CancelJob).
		id, job := spec.ID, spec.Job
		abort := func() error { return s.cancelled(id, job) }
		if err := s.mgr.AcquireFor(spec.ID, reqs, t.ctx.span, abort); err != nil {
			return nil, err // leave ends the claims
		}
		t.holds = true // the locks, and the claims they took over: leave releases them
	}
	return k.Process(&t.ctx)
}

// Ctx is the execution context handed to variant bodies; it lives in
// the task it belongs to, and is valid only until the body returns: the
// task of a fork's child is reused once the fork has joined (fork.go).
type Ctx struct {
	sched *Scheduler
	t     *task
	// span is the task's exec/split span; child spawns parent on it.
	span trace.SpanID
	// worker is the queue worker the task occupies: waiting on a child
	// must not idle it.
	worker int
	// frags remembers the fragments the body has asked for (Fragment).
	frags []ctxFragment
}

type ctxFragment struct {
	id   dim.ItemID
	frag dataitem.Fragment
}

// Rank returns the executing locality's rank.
func (c *Ctx) Rank() int { return c.sched.Rank() }

// Manager returns the local data item manager, through which variant
// bodies access their granted fragments.
func (c *Ctx) Manager() *dim.Manager { return c.sched.mgr }

// Fragment returns the local fragment of the item, as the manager's
// Fragment does. A manager keeps one fragment object per item for the
// item's lifetime, so the context remembers the few it has handed out:
// a body that resolves its fragments once per element stays off the
// manager's lock. For the task's own goroutine only.
func (c *Ctx) Fragment(id dim.ItemID) (dataitem.Fragment, error) {
	for i := range c.frags {
		if c.frags[i].id == id {
			return c.frags[i].frag, nil
		}
	}
	frag, err := c.sched.mgr.Fragment(id)
	if err != nil {
		return nil, err
	}
	c.frags = append(c.frags, ctxFragment{id: id, frag: frag})
	return frag, nil
}

// Args decodes the task arguments into out.
func (c *Ctx) Args(out any) error { return wire.Decode(c.t.spec.Args, out) }

// RawArgs returns the encoded task arguments, for a body that decodes
// them itself; read them, do not write them.
func (c *Ctx) RawArgs() []byte { return c.t.spec.Args }

// Spawn schedules a child task ((spawn) transition), assigning it the
// given branch bit in the spawn tree. Waiting on the returned future
// is the (sync) transition, which lends the worker the task occupies to
// the run queue for the length of the wait (HelpWait) — so the wait
// belongs on the task's own goroutine, like Fragment. Spawn is for
// n-ary fan-out: a split with two children forks them (Fork).
func (c *Ctx) Spawn(kind string, args any, branch uint64) (*runtime.Future, error) {
	t := &task{}
	c.child(t, branch)
	t.fut.SetWaitHelper(c)
	if _, err := c.sched.spawnAt(t, c.worker, false, kind, args, c.span); err != nil {
		return nil, err
	}
	return &t.fut, nil
}

// child places the empty task t at the given branch below this task, in
// its job.
func (c *Ctx) child(t *task, branch uint64) {
	p := &c.t.spec
	t.spec = TaskSpec{
		Depth:   p.Depth + 1,
		Path:    p.Path<<1 | (branch & 1),
		PathLen: p.PathLen + 1,
		Tenant:  p.Tenant,
		Job:     p.Job,
	}
}

// HelpWait implements runtime.WaitHelper: the helping join
// (steal.go).
func (c *Ctx) HelpWait(fut *runtime.Future) { c.sched.helpUntil(c.worker, fut) }

// Tenant returns the executing task's tenant tag (0 outside service
// mode).
func (c *Ctx) Tenant() uint32 { return c.t.spec.Tenant }

// Job returns the executing task's job tag (0 outside service mode).
func (c *Ctx) Job() uint64 { return c.t.spec.Job }
