// Package recovery implements the crash-recovery subsystem of the
// runtime prototype (DESIGN.md §6c): heartbeat-based failure
// detection across both fabrics, exclusion of dead ranks from
// scheduling and the distributed index, re-homing of a dead rank's
// checkpointed data item fragments onto survivors, and re-execution of
// the tasks lost with the rank.
//
// The paper's model makes this recoverability argument explicit: a
// crash loses exactly the fragments and running tasks of one locality
// (the (crash) transition of the dynamic semantics); everything else
// — the index, the allocation claims, the spawn tree — can be rebuilt
// from the survivors. Because the runtime owns data distribution, the
// recovery is a system service: no application code participates.
//
// One rule decides what becomes of a task lost with the rank, applied
// by the task's origin from what the task itself declares
// (sched.Scheduler.Recover): a task whose kind states no data
// requirement for its arguments is re-spawned onto a live rank; any
// other has its future failed with runtime.ErrPeerFailed, so the task
// wave it belongs to unwinds. The crash took the dead rank's fragments
// with it — a respawned reader or writer would first-touch zeroes where
// the data was — and only the driver knows a state worth going back to:
// it hands Restore a checkpoint, which rolls every live rank back to it,
// re-homes the shares of ranks no longer live onto survivors, and lets
// the driver re-run the phase.
package recovery

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/metrics"
	"allscale/internal/resilience"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/trace"
)

// Options tunes failure detection beyond the probe interval and the
// suspicion timeout, which are the system's (core.Config.Recovery).
type Options struct {
	// PingRetries sets how long the confirmation ping waits before the
	// peer is declared dead: PingRetries+1 timeouts. Suspicion pauses
	// placement immediately; death needs the whole wait, so a
	// lossy-but-alive peer survives a dropped probe. Default 3.
	PingRetries int
}

// Registry names under which the coordinator publishes its metrics
// (into the rank-0 registry of the system).
const (
	MetricDeaths = "recovery.deaths"
	// MetricRehomed counts checkpoint records Restore re-homed from ranks
	// no longer live onto survivors.
	MetricRehomed = "recovery.rehomed_records"
	// MetricRespawned counts lost tasks that needed no data and were
	// re-spawned onto live ranks; MetricRequeued the others, whose futures
	// were failed back to their waiters (sched.Scheduler.Recover).
	MetricRespawned = "recovery.respawned_tasks"
	MetricRequeued  = "recovery.requeued_tasks"
	MetricRecover   = "recovery.recover.us"
	// MetricSuspects counts suspicion episodes (a peer flagged after
	// heartbeat silence); MetricFalseAlarms counts the episodes that
	// ended with a successful confirmation ping instead of a death.
	MetricSuspects    = "recovery.suspects"
	MetricFalseAlarms = "recovery.false_alarms"
)

const methodPing = "recovery.ping"

// Report lists the ranks the coordinator saw die, join and drain so far;
// what it counted is in the registry (Metric*).
type Report struct {
	// Dead lists the ranks declared dead, in rank order.
	Dead []int
	// Joined/Drained list the ranks admitted into and gracefully
	// retired from the membership, in event order.
	Joined  []int
	Drained []int
}

// Coordinator is the per-system recovery coordinator: it runs one
// failure detector per locality, arbitrates death declarations, and
// drives the recovery sequence. It implements core.RecoveryService.
type Coordinator struct {
	sys  *core.System
	cfg  core.RecoveryConfig // defaults applied
	opts Options

	mu         sync.Mutex
	dead       map[int]bool
	confirming map[int]bool
	// suspectedAt records when each rank first came under suspicion;
	// the order decides report authority in distrusted.
	suspectedAt map[int]time.Time
	epoch       uint64
	report      Report

	// recMu serializes whole recovery sequences: two deaths reported
	// concurrently recover one after the other. died is closed, and
	// replaced, under it whenever a sequence ends (WaitDeaths).
	recMu sync.Mutex
	died  chan struct{}

	deaths, rehomed, respawned, requeued *metrics.Counter
	suspects, falseAlarms                *metrics.Counter
	joins, drains                        *metrics.Counter
	warmupBytes, warmupUs                *metrics.Counter
	recoverHist                          *metrics.Histogram

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Attach creates the coordinator of a system, registers the liveness
// confirmation service on every locality, subscribes to transport
// failure notifications, and starts the detectors, which probe at the
// system's core.Config.Recovery interval. Must be called after the
// system's services are registered (it installs an RPC handler on every
// locality).
func Attach(sys *core.System, opts Options) *Coordinator {
	cfg := sys.RecoveryConfig()
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 250 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 4 * cfg.Heartbeat
	}
	if opts.PingRetries <= 0 {
		opts.PingRetries = 3
	}
	reg := sys.Metrics(0)
	c := &Coordinator{
		sys:         sys,
		cfg:         cfg,
		opts:        opts,
		dead:        make(map[int]bool),
		confirming:  make(map[int]bool),
		suspectedAt: make(map[int]time.Time),
		deaths:      reg.Counter(MetricDeaths),
		rehomed:     reg.Counter(MetricRehomed),
		respawned:   reg.Counter(MetricRespawned),
		requeued:    reg.Counter(MetricRequeued),
		suspects:    reg.Counter(MetricSuspects),
		falseAlarms: reg.Counter(MetricFalseAlarms),
		joins:       reg.Counter(MetricJoins),
		drains:      reg.Counter(MetricDrains),
		warmupBytes: reg.Counter(MetricWarmupBytes),
		warmupUs:    reg.Counter(MetricWarmupUs),
		recoverHist: reg.Histogram(MetricRecover),
		died:        make(chan struct{}),
		stop:        make(chan struct{}),
	}
	for r := 0; r < sys.Size(); r++ {
		r := r
		loc := sys.Locality(r)
		loc.Handle(methodPing, func(int, []byte) ([]byte, error) { return nil, nil })
		loc.Handle(methodMembership, membershipHandler(loc))
		// Cross-check with the transport's link-death notifications: a
		// reported peer failure triggers an immediate active
		// confirmation instead of waiting out the heartbeat timeout.
		loc.OnPeerFailure(func(peer int, _ error) { c.confirm(r, peer) })
	}
	sys.SetRecovery(c)
	c.wg.Add(sys.Size())
	for r := 0; r < sys.Size(); r++ {
		go c.detect(r)
	}
	return c
}

// Stop terminates the detectors; it is idempotent. In-flight
// confirmations finish on their own.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// DeadRanks returns the ranks declared dead so far, in rank order.
func (c *Coordinator) DeadRanks() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.dead))
	for r := range c.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// WaitDeaths blocks until at least n ranks were declared dead (and
// their recovery sequences completed), or the timeout passed.
func (c *Coordinator) WaitDeaths(n int, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		c.recMu.Lock()
		done, died := len(c.report.Dead) >= n, c.died
		c.recMu.Unlock()
		if done {
			return true
		}
		select {
		case <-died:
		case <-timer.C:
			return false
		}
	}
}

// Report returns a snapshot of the coordinator's activity.
func (c *Coordinator) Report() Report {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	rep := c.report
	rep.Dead = append([]int(nil), rep.Dead...)
	rep.Joined = append([]int(nil), rep.Joined...)
	rep.Drained = append([]int(nil), rep.Drained...)
	return rep
}

func (c *Coordinator) tracer() *trace.Tracer { return c.sys.Tracer(0) }

// liveRanks returns the ranks live in a survivor's view and not
// declared dead, ascending. Latent and departed ranks are excluded:
// recovery sequences (and the index geometry they rebuild) range over
// the active membership only.
func (c *Coordinator) liveRanks() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for r := 0; r < c.sys.Size(); r++ {
		if !c.dead[r] && c.sys.Peer(r).Live() {
			out = append(out, r)
		}
	}
	return out
}

// nextEpoch allocates a fence epoch above every epoch a view has
// adopted: a fence never decreases, so a lower one would not take.
func (c *Coordinator) nextEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r := 0; r < c.sys.Size(); r++ {
		c.epoch = max(c.epoch, c.sys.Locality(r).Epoch())
	}
	c.epoch++
	return c.epoch
}

// setPeer moves rank to state to in every open view but its own.
func (c *Coordinator) setPeer(rank int, to runtime.PeerState, epoch uint64) {
	c.eachView(rank, func(l *runtime.Locality) { l.SetPeer(rank, to, epoch) })
}

// eachView runs move on every open locality but rank's, under mu: a
// false alarm reads Suspect and moves back to Member, and that must not
// straddle a drain's move to Draining or its abort.
func (c *Coordinator) eachView(rank int, move func(*runtime.Locality)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for r := 0; r < c.sys.Size(); r++ {
		if l := c.sys.Locality(r); r != rank && !l.Closed() {
			move(l)
		}
	}
}

// ---------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------

// detect is the per-locality failure detector: every heartbeat
// interval it probes all peers and checks their last-heard timestamps;
// a silent peer is handed to confirm. The detector of a killed
// locality exits on its own.
func (c *Coordinator) detect(rank int) {
	defer c.wg.Done()
	loc := c.sys.Locality(rank)
	ticker := time.NewTicker(c.cfg.Heartbeat)
	defer ticker.Stop()
	// Grace: peers are judged from detector start, not system start —
	// a quiet but healthy fabric must not trip the timeout on round 1.
	base := time.Now()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		if loc.Closed() {
			return
		}
		switch st := c.sys.Peer(rank); {
		case st.Gone():
			return // drained or declared dead: the detector retires with the rank
		case st == runtime.Latent:
			continue // latent: wait out the tick until a join admits us
		}
		for p := 0; p < c.sys.Size(); p++ {
			if p == rank || !loc.Peer(p).Live() {
				continue
			}
			loc.Heartbeat(p)
			last := loc.LastHeard(p)
			if last.Before(base) {
				last = base
			}
			if time.Since(last) > c.cfg.Timeout {
				c.confirm(rank, p)
			}
		}
	}
}

// confirm escalates a suspected peer: the peer is flagged suspect on
// every live locality (placement and stealing avoid it immediately),
// then a confirmation ping with a full retry budget decides between
// false alarm (suspicion cleared) and death. Splitting suspicion from
// death keeps a lossy-but-alive peer schedulable again after one
// successful probe instead of fencing it forever. At most one
// confirmation per peer runs at a time.
func (c *Coordinator) confirm(observer, peer int) {
	c.mu.Lock()
	if c.dead[peer] || c.confirming[peer] {
		c.mu.Unlock()
		return
	}
	c.confirming[peer] = true
	if _, ok := c.suspectedAt[peer]; !ok {
		c.suspectedAt[peer] = time.Now()
	}
	c.mu.Unlock()
	go func() {
		sp := c.tracer().Begin("recovery.detect", fmt.Sprintf("confirm rank %d", peer), 0)
		c.setPeer(peer, runtime.Suspect, 0)
		c.suspects.Inc()
		err := c.ping(observer, peer)
		sp.SetErr(err)
		sp.End()
		c.mu.Lock()
		delete(c.confirming, peer)
		c.mu.Unlock()
		if err == nil {
			// False alarm: the peer answered — lift the pause suspicion set.
			c.clearSuspicion(peer)
			c.falseAlarms.Inc()
			return
		}
		select {
		case <-c.stop:
			c.clearSuspicion(peer)
			return // shutting down: closing localities are not deaths
		default:
		}
		if c.distrusted(observer, peer) {
			c.clearSuspicion(peer)
			return
		}
		c.ReportDeath(peer)
	}()
}

// distrusted reports whether observer's death report for peer must be
// discarded. A dead observer has none: once survivors fence a
// partitioned rank they stop heartbeating it, so its own detector soon
// sees every survivor as silent and — with its pings still blocked —
// would declare the whole system dead. Between live ranks, an observer
// that came under suspicion no later than peer is the more likely
// failure and loses report authority; ties cannot occur because
// suspicions are recorded sequentially under mu. A discarded report
// clears the suspicion; a genuinely dead peer is re-confirmed by a
// trusted observer on the next detector tick.
func (c *Coordinator) distrusted(observer, peer int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead[observer] {
		return true
	}
	obsAt, suspected := c.suspectedAt[observer]
	return suspected && !obsAt.After(c.suspectedAt[peer])
}

// clearSuspicion moves peer from Suspect back to Member wherever it is
// suspect — a drain's pause is no suspicion and stays — and forgets its
// suspicion timestamp so a later, unrelated suspicion starts fresh.
func (c *Coordinator) clearSuspicion(peer int) {
	c.eachView(peer, func(l *runtime.Locality) {
		if l.Peer(peer) == runtime.Suspect {
			l.SetPeer(peer, runtime.Member, 0)
		}
	})
	c.mu.Lock()
	delete(c.suspectedAt, peer)
	c.mu.Unlock()
}

// ping calls the liveness service on peer from observer. The link
// resends a lost probe frame; the call waits PingRetries+1 timeouts for
// the answer before the probe counts as failed — a single dropped frame
// on a lossy link is not evidence of death. A transport-level link
// failure still fails the call immediately (stronger evidence than
// silence).
func (c *Coordinator) ping(observer, peer int) error {
	return c.sys.Locality(observer).Call(peer, methodPing, &struct{}{}, nil,
		runtime.WithRetries(c.opts.PingRetries, c.cfg.Timeout))
}

// ---------------------------------------------------------------
// Recovery sequence
// ---------------------------------------------------------------

// ReportDeath declares a rank dead and runs the recovery sequence:
// exclusion (every live locality marks the rank dead, failing calls
// toward it), pin release, lost-task collection, index rebuild, and for
// each lost task the one rule — respawned if it needs no data, its
// future failed if it does. It is idempotent per rank and serializes
// with other recoveries.
func (c *Coordinator) ReportDeath(dead int) {
	if !c.sys.Peer(dead).Live() {
		// Latent or gracefully departed ranks are not failures: a
		// straggler confirmation racing a drain must not trigger a
		// recovery sequence for a rank that migrated its state out.
		return
	}
	c.mu.Lock()
	if c.dead[dead] {
		c.mu.Unlock()
		return
	}
	c.dead[dead] = true
	c.mu.Unlock()
	// The fence epoch for this death: every survivor adopts it, and the
	// dead rank's frames are fenced — a partitioned-then-healed rank
	// cannot keep mutating survivor state.
	fence := c.nextEpoch()

	c.recMu.Lock()
	defer c.recMu.Unlock()
	start := time.Now()
	sp := c.tracer().Begin("recovery.recover", fmt.Sprintf("rank %d", dead), 0)
	defer func() {
		sp.End()
		c.deaths.Inc()
		c.recoverHist.Observe(time.Since(start))
	}()

	live := c.liveRanks()
	// 1. Exclusion and fencing: every open locality — latent ranks
	// included, so a later join inherits the verdict — moves the rank to
	// Dead under the agreed fence epoch. Future sends fail fast, pending
	// calls toward it resolve with runtime.ErrPeerFailed, schedulers skip
	// it for placement and stealing, the DIM routes index traffic around
	// it, and its inbound frames are rejected at dispatch.
	c.setPeer(dead, runtime.Dead, fence)
	// 2. The dead rank's replica pins will never be confirmed: release
	// them everywhere so they cannot block write consolidation.
	for _, r := range live {
		c.sys.Manager(r).ReleasePinsOf(dead)
	}
	// 3. Collect the tasks lost with the rank: every live scheduler
	// surrenders the specs it shipped or handed to the dead rank.
	// The union over-approximates; keep only tasks whose (live) origin
	// still awaits the result.
	seen := make(map[uint64]bool)
	var lost []sched.TaskSpec
	for _, r := range live {
		for _, spec := range c.sys.Scheduler(r).HandleDeath(dead) {
			if seen[spec.ID] {
				continue
			}
			seen[spec.ID] = true
			if spec.Origin == dead || c.isDead(spec.Origin) {
				continue // the waiter died with its task
			}
			if !c.sys.Locality(spec.Origin).PromisePending(spec.Promise) {
				continue // completed before the crash
			}
			lost = append(lost, spec)
		}
	}

	// 4. Rebuild the distributed index without the dead rank. This is
	// a liveness requirement: index nodes the dead rank hosted are
	// re-homed onto survivors that hold none of their state, so even
	// the *survivors'* coverage under those nodes vanishes from lookups
	// while the root's allocation set still claims it — staging would
	// spin forever. Afterwards every live fragment is findable (and the
	// dead rank's share claimable) again. What tasks of a wave that is
	// being failed do with that window is discarded by Restore.
	sp.SetErr(c.reindex(live))

	// 5. The one rule, applied by each lost task's origin (Recover). A
	// task that needs no data lost nothing but its place: it runs again
	// on a survivor. A task that needs data may need what died with the
	// rank — the runtime cannot tell from here whether a copy survives,
	// and a first touch of the hole reads zeroes — so its future fails
	// and the decision returns to the driver, who may hold a checkpoint
	// (Restore).
	rsp := c.tracer().Begin("recovery.respawn", fmt.Sprintf("%d tasks", len(lost)), sp.SpanID())
	for _, spec := range lost {
		if c.sys.Scheduler(spec.Origin).Recover(spec, dead) {
			c.respawned.Inc()
		} else {
			c.requeued.Inc()
		}
	}
	rsp.End()
	c.report.Dead = append(c.report.Dead, dead)
	sort.Ints(c.report.Dead)
	close(c.died)
	c.died = make(chan struct{})
}

func (c *Coordinator) isDead(rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead[rank]
}

// reindex rebuilds the distributed index and the allocation claims over
// the given ranks — after a death, a rollback or a membership change —
// in three system-wide phases (dim/recovery.go): every rank retracts its
// index coverage under a fresh recovery epoch (a barrier: all
// retractions complete before the first republish), every rank
// republishes its leaf coverage, and the index root host, the lowest of
// the ranks, re-derives the allocation claims from the rebuilt root.
func (c *Coordinator) reindex(live []int) error {
	if len(live) == 0 {
		return fmt.Errorf("recovery: no live ranks")
	}
	epoch := c.nextEpoch()
	drv := c.sys.Manager(live[0])
	sp := c.tracer().Begin("recovery.retract", fmt.Sprintf("epoch %d", epoch), 0)
	err := eachRank(live, "retract", func(r int) error { return drv.RetractRemote(r, epoch) })
	sp.SetErr(err)
	sp.End()
	if err != nil {
		return err
	}
	sp = c.tracer().Begin("recovery.republish", "", 0)
	if err = eachRank(live, "republish", drv.RepublishRemote); err == nil {
		err = eachRank(live[:1], "sync allocations", drv.SyncAllocRemote)
	}
	sp.SetErr(err)
	sp.End()
	return err
}

func eachRank(ranks []int, what string, do func(rank int) error) error {
	for _, r := range ranks {
		if err := do(r); err != nil {
			return fmt.Errorf("recovery: %s at rank %d: %w", what, r, err)
		}
	}
	return nil
}

// quiesceBound bounds how long a drain or a rollback waits for running
// tasks and outstanding calls to finish before giving up.
const quiesceBound = 30 * time.Second

// quiesce waits until none of the ranks has a task queued or running or
// a call outstanding — so nothing of theirs is in flight between ranks
// either — or the bound has passed.
func (c *Coordinator) quiesce(ranks []int) error {
	deadline := time.Now().Add(quiesceBound)
	for {
		busy := -1
		for _, r := range ranks {
			if c.sys.Scheduler(r).Load() != 0 || c.sys.Locality(r).PendingCalls() != 0 {
				busy = r
				break
			}
		}
		if busy < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no quiescence at rank %d (load %d, %d calls pending)",
				busy, c.sys.Scheduler(busy).Load(), c.sys.Locality(busy).PendingCalls())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Restore rolls the system to the checkpoint: every live rank's
// fragments are force-reset to their checkpoint shares — the shares of
// ranks that are not live (dead, departed, latent) re-homed onto the
// next live rank — and the index and allocation claims are rebuilt. It
// is the rollback after a crash and the restart into a fresh system
// alike: the system must have the checkpoint's locality count and its
// items must exist under the same IDs and types (created through the
// same code path); the checkpoint may have been read from disk, so all
// of that is checked before anything is touched. Restore waits for what
// still runs to finish — the stragglers of a failed task wave — before
// it takes their fragments away.
func (c *Coordinator) Restore(cp *resilience.Checkpoint) error {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	start := time.Now()
	live := c.liveRanks()
	if len(live) == 0 {
		return fmt.Errorf("recovery: no live ranks")
	}
	if c.sys.Size() != cp.Localities {
		return fmt.Errorf("recovery: checkpoint of %d localities restored into %d", cp.Localities, c.sys.Size())
	}
	for i := range cp.Records {
		rec := &cp.Records[i]
		if rec.Rank < 0 || rec.Rank >= cp.Localities {
			return fmt.Errorf("recovery: restore %v: record of rank %d in a checkpoint of %d localities", rec.Item, rec.Rank, cp.Localities)
		}
		name, err := c.sys.Manager(live[0]).TypeName(rec.Item)
		if err != nil {
			return fmt.Errorf("recovery: restore %v: item must exist before restore: %w", rec.Item, err)
		}
		if name != rec.TypeName {
			return fmt.Errorf("recovery: restore %v: type %q does not match checkpoint %q", rec.Item, name, rec.TypeName)
		}
	}
	if err := c.quiesce(live); err != nil {
		return fmt.Errorf("recovery: restore: %w", err)
	}
	sp := c.tracer().Begin("recovery.rehome", fmt.Sprintf("%d records", len(cp.Records)), 0)
	defer sp.End()

	// Re-home: group the checkpoint records by the rank that takes them
	// (a rank that is not live hands its share to the next live rank,
	// wrapping), then force-reset every (live rank, item) fragment —
	// including ranks without records, which must drop their
	// post-checkpoint coverage.
	home := func(rank int) int {
		for !slices.Contains(live, rank) {
			rank = (rank + 1) % c.sys.Size()
		}
		return rank
	}
	items := make(map[dim.ItemID]bool)
	shares := make(map[int]map[dim.ItemID][]*dim.LocalSnapshot)
	rehomed := 0
	for i := range cp.Records {
		rec := &cp.Records[i]
		items[rec.Item] = true
		t := home(rec.Rank)
		if t != rec.Rank {
			rehomed++
		}
		if shares[t] == nil {
			shares[t] = make(map[dim.ItemID][]*dim.LocalSnapshot)
		}
		shares[t][rec.Item] = append(shares[t][rec.Item], &rec.Snapshot)
	}
	for id := range items {
		for _, r := range live {
			if err := c.sys.Manager(r).ResetLocal(id, shares[r][id]); err != nil {
				sp.SetErr(err)
				return fmt.Errorf("recovery: reset %v at rank %d: %w", id, r, err)
			}
		}
	}
	if err := c.reindex(live); err != nil {
		sp.SetErr(err)
		return err
	}
	c.rehomed.Add(uint64(rehomed))
	c.sys.Metrics(0).Histogram(resilience.MetricRestoreTime).Observe(time.Since(start))
	return nil
}
