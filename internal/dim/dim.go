// Package dim implements the AllScale data item manager
// (Section 3.2): one manager instance per runtime process maintains
// fragments of data items, performs resizing, import and export
// operations, tracks the read/write lock state of locally maintained
// regions, and participates in the hierarchical distributed index of
// Fig. 5 used to locate regions (Algorithm 1).
package dim

import (
	"fmt"
	"sync"
	"time"

	"allscale/internal/backoff"
	"allscale/internal/dataitem"
	"allscale/internal/metrics"
	"allscale/internal/runtime"
)

// ItemID globally identifies a data item: the creating rank in the top
// 16 bits, its type's code (dataitem.TypeCode) in the next 16, and a
// creator-local sequence number in the lower 32.
type ItemID uint64

// MakeItemID composes an item ID.
func MakeItemID(rank int, code uint16, seq uint32) ItemID {
	return ItemID(uint64(uint16(rank))<<48 | uint64(code)<<32 | uint64(seq))
}

func (id ItemID) String() string { return fmt.Sprintf("d%d.%d", id>>48, uint32(id)) }

// Mode distinguishes read-only from read/write data requirements
// (Definition 2.7).
type Mode int

const (
	// Read grants shared access; the manager may replicate the data.
	Read Mode = iota
	// Write grants exclusive access; the manager evicts every other
	// copy before granting it, or holds it write-locked until the new
	// bytes are installed (exclusive writes).
	Write
)

func (m Mode) String() string {
	if m == Write {
		return "write"
	}
	return "read"
}

// Requirement is one data requirement of a task: a region of one item
// accessed in the given mode.
type Requirement struct {
	Item   ItemID
	Region dataitem.Region
	Mode   Mode
}

// Located maps a region segment to the rank hosting it (the result
// relation of Algorithm 1).
type Located struct {
	Region dataitem.Region
	Rank   int
}

// Registry names under which the manager publishes its metrics.
const (
	MetricAcquires    = "dim.acquires"
	MetricLocates     = "dim.locates"
	MetricAcquireWait = "dim.acquire_wait"
	// MetricLocateRPCs counts outgoing index-resolution RPCs (batched
	// resolveBatch frames); on the steady-state hot path the locate
	// cache keeps it flat while MetricLocates keeps counting.
	MetricLocateRPCs = "dim.locate_rpcs"
	// Locate-cache effectiveness counters (DESIGN.md §6f).
	MetricLocateCacheHits   = "dim.locate_cache.hits"
	MetricLocateCacheMisses = "dim.locate_cache.misses"
	MetricLocateCacheInvals = "dim.locate_cache.invalidations"
	// Write requirements by how their sole copy was established:
	// "direct" ones revoked the recorded sharers without touching the
	// index — the region lay inside the root region, or the root role
	// came with a sharer's drop reply — "walked" ones ran the
	// authoritative walk-evict-rewalk loop.
	MetricRevokeDirect = "dim.revoke.direct"
	MetricRevokeWalked = "dim.revoke.walked"
	// MetricRevokeBackoffs counts the backoffs of write acquisitions whose
	// walk found no root copy to take over; an uncontended ownership
	// migration takes none.
	MetricRevokeBackoffs = "dim.revoke.backoffs"
	// Drops served, by outcome: "kept" ones left (part of) a replica in
	// place under a write-mode pin, "evicted" ones removed data.
	MetricDropKept    = "dim.drop.kept"
	MetricDropEvicted = "dim.drop.evicted"
	// MetricDropCarried counts the kept drops a holder served as it
	// shipped their writer its task (Carry): each is one dim.drop the
	// writer's acquisition does not send.
	MetricDropCarried = "dim.drop.carried"
	// MetricDropGiven counts the kept drops a holder served as its local
	// reader let go (giveBack): each is one dim.drop its writer's next
	// write does not send. MetricDropReclaimed counts the parts given back
	// that something at their holder waited for, and asked back.
	MetricDropGiven     = "dim.drop.given"
	MetricDropReclaimed = "dim.drop.reclaimed"
	// Refreshes of kept replicas: sent (and their payload bytes) at the
	// writer; stale at the sharer when the pin token was unknown — the
	// pin had been force-released — and nothing was installed.
	MetricRefreshSent  = "dim.refresh.sent"
	MetricRefreshBytes = "dim.refresh.bytes"
	MetricRefreshStale = "dim.refresh.stale"
	// MetricRefreshWait is how long local acquisitions that met a
	// write-mode pin waited for their locks (the transfer share of the
	// acquire wait; the rest is lock wait proper).
	MetricRefreshWait = "dim.refresh.wait"
	// MetricLockWait is the time each park of the one lock wait lasted
	// (park), MetricLockWaiters how many waits are parked right now.
	MetricLockWait    = "dim.lock_wait"
	MetricLockWaiters = "dim.lock_wait.parked"
)

// Manager is the data item manager instance of one locality.
type Manager struct {
	loc *runtime.Locality
	reg *dataitem.Registry

	// acquires/locates and the acquire-wait histogram live in the
	// locality-wide metrics registry.
	acquires       *metrics.Counter
	locates        *metrics.Counter
	acquireWait    *metrics.Histogram
	locateRPCs     *metrics.Counter
	cacheHits      *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheInvals    *metrics.Counter
	revokeDirect   *metrics.Counter
	revokeWalked   *metrics.Counter
	revokeBackoffs *metrics.Counter
	dropKept       *metrics.Counter
	dropEvicted    *metrics.Counter
	dropCarried    *metrics.Counter
	dropGiven      *metrics.Counter
	dropReclaimed  *metrics.Counter
	refreshSent    *metrics.Counter
	refreshBytes   *metrics.Counter
	refreshStale   *metrics.Counter
	refreshWait    *metrics.Histogram
	lockWait       *metrics.Histogram
	parked         *metrics.Gauge

	mu sync.Mutex
	// wake is closed by the next wakeLocked, ending every parked wait;
	// nil while none is parked (guarded by mu).
	wake   chan struct{}
	items  map[ItemID]*itemState
	seq    uint32
	pinSeq uint64 // pin token sequence (guarded by mu)
	// destroyed fences the items destroyed here (guarded by mu).
	destroyed fence
	// epoch is the recovery epoch (guarded by mu): index report
	// versions are composed as epoch<<32|ver, so a coverage retraction
	// (which raises the epoch and floors all side versions) bars every
	// stale pre-crash report from resurrecting dead coverage.
	epoch uint64
	// cacheOff disables the locate cache (ablations and the E13
	// before/after measurement). Guarded by mu.
	cacheOff bool
}

// New creates the manager of loc and registers its services. All
// managers of a system must be created before the fabric starts.
func New(loc *runtime.Locality, reg *dataitem.Registry) *Manager {
	m := &Manager{
		loc:            loc,
		reg:            reg,
		acquires:       loc.Metrics().Counter(MetricAcquires),
		locates:        loc.Metrics().Counter(MetricLocates),
		acquireWait:    loc.Metrics().Histogram(MetricAcquireWait),
		locateRPCs:     loc.Metrics().Counter(MetricLocateRPCs),
		cacheHits:      loc.Metrics().Counter(MetricLocateCacheHits),
		cacheMisses:    loc.Metrics().Counter(MetricLocateCacheMisses),
		cacheInvals:    loc.Metrics().Counter(MetricLocateCacheInvals),
		revokeDirect:   loc.Metrics().Counter(MetricRevokeDirect),
		revokeWalked:   loc.Metrics().Counter(MetricRevokeWalked),
		revokeBackoffs: loc.Metrics().Counter(MetricRevokeBackoffs),
		dropKept:       loc.Metrics().Counter(MetricDropKept),
		dropEvicted:    loc.Metrics().Counter(MetricDropEvicted),
		dropCarried:    loc.Metrics().Counter(MetricDropCarried),
		dropGiven:      loc.Metrics().Counter(MetricDropGiven),
		dropReclaimed:  loc.Metrics().Counter(MetricDropReclaimed),
		refreshSent:    loc.Metrics().Counter(MetricRefreshSent),
		refreshBytes:   loc.Metrics().Counter(MetricRefreshBytes),
		refreshStale:   loc.Metrics().Counter(MetricRefreshStale),
		refreshWait:    loc.Metrics().Histogram(MetricRefreshWait),
		lockWait:       loc.Metrics().Histogram(MetricLockWait),
		parked:         loc.Metrics().Gauge(MetricLockWaiters),
		items:          make(map[ItemID]*itemState),
	}
	m.registerServices()
	return m
}

// Rank returns the hosting locality's rank.
func (m *Manager) Rank() int { return m.loc.Rank() }

// size returns the number of processes.
func (m *Manager) size() int { return m.loc.Size() }

// ctlOpt and dataOpt bind the locality's delivery profiles to the
// manager's RPCs: index/metadata traffic rides the control-plane
// policy (bounded deadline, retries with server-side dedup — index
// mutations execute exactly once on a lossy fabric), while bulk
// fragment transfers ride the data-plane policy (unbounded by
// default, so large transfers on slow links keep their historical
// semantics unless the profile opts in).
func (m *Manager) ctlOpt() runtime.CallOption { return runtime.WithSpec(m.loc.ControlSpec()) }

func (m *Manager) dataOpt() runtime.CallOption { return runtime.WithSpec(m.loc.DataSpec()) }

// ---------------------------------------------------------------
// Process hierarchy geometry (Fig. 5)
// ---------------------------------------------------------------

// rootLevel returns the level of the hierarchy root: the smallest l
// with 2^(l-1) >= P. Level 1 is the leaf level.
func rootLevel(p int) int {
	l := 1
	for (1 << uint(l-1)) < p {
		l++
	}
	return l
}

// nodeLo returns the lowest process rank of the subtree of the level-l
// node containing process i — the node's identity, independent of
// which (live) process currently hosts it.
func nodeLo(i, l int) int { return i - i%(1<<uint(l-1)) }

// goneHost names the rank a fully dead subtree's data was at: its first
// rank this rank holds gone, else its first rank.
func (m *Manager) goneHost(lo, l int) int {
	for r := lo; r < min(lo+1<<uint(l-1), m.size()); r++ {
		if m.loc.Peer(r).Gone() {
			return r
		}
	}
	return lo
}

// liveHost returns the process hosting the node whose subtree starts
// at lo on level l once dead and non-member ranks are excluded: the
// left-most live member of the subtree (Fig. 5's "the left-most
// process of a subtree hosts its inner node", with full membership and
// zero deaths). Returns
// -1 when the whole subtree is dead or outside the membership.
// Because a rank is the left-most live member of at most one subtree
// per level, a rank still hosts at most one node per level. Treating
// latent ranks as holes and letting a join fill them back in is what
// generalizes the crash-time hole routing to *insertion*: admitting a
// rank shifts hosts within its subtree, which is why a membership
// change rebuilds the index (retract → republish) under a fresh
// epoch.
func (m *Manager) liveHost(lo, l int) int {
	hi := lo + 1<<uint(l-1)
	if hi > m.size() {
		hi = m.size()
	}
	for r := lo; r < hi; r++ {
		if m.loc.Peer(r).Live() {
			return r
		}
	}
	return -1
}

// stampLocked composes the full report version of a locally emitted
// index report from the recovery epoch and the per-level counter.
// Callers must hold m.mu.
func (m *Manager) stampLocked(ver uint64) uint64 { return m.epoch<<32 | ver }

// lockWaitBound is the application-deadlock diagnostic: a wait parked
// this long fails instead of hanging. Package tests lower it.
var lockWaitBound = 60 * time.Second

// waiter is one blocked operation's lock wait, a ParalleX LCO: it ends
// on a wake, on its owner's abort, or at lockWaitBound, and on nothing
// else. A wait that never parks costs nothing.
type waiter struct {
	// abort, if set, says why the owner no longer wants what it waits
	// for: a task's cancelled job, a handler's requester gone. Whoever
	// makes it fail wakes the manager (Wake, ReleasePinsOf).
	abort func() error
	// t is made when the wait first parks. Behind a pointer, stopping
	// its timers leaks nothing of abort's closure off its owner's stack.
	t *waitTimers
}

type waitTimers struct {
	bound *time.Timer
	tick  *backoff.Timer // the retry loops' (pause)
}

func (w *waiter) aborted() error {
	if w.abort == nil {
		return nil
	}
	return w.abort()
}

// done stops the bound's timer; the owner calls it when it stops waiting.
func (w *waiter) done() {
	if w.t != nil {
		w.t.bound.Stop()
	}
}

// park is the manager's one blocking point, entered and left with mu
// held: it waits for the next wake — or, with tick set, for the next
// tick of a randomized exponential backoff (100 µs – 2 ms) — and fails
// when w is aborted or its bound has passed.
func (m *Manager) park(w *waiter, tick bool) error {
	if err := w.aborted(); err != nil {
		return err
	}
	if w.t == nil {
		w.t = &waitTimers{time.NewTimer(lockWaitBound),
			backoff.New(100*time.Microsecond, 2*time.Millisecond, int64(m.Rank())<<40^time.Now().UnixNano())}
	}
	var wake <-chan struct{}
	var ticks <-chan time.Time
	if tick {
		ticks = w.t.tick.Arm()
	} else {
		if m.wake == nil {
			m.wake = make(chan struct{})
		}
		wake = m.wake
	}
	m.parked.Add(1)
	start := time.Now()
	m.mu.Unlock()
	expired := false
	select {
	case <-wake:
	case <-ticks:
	case <-w.t.bound.C:
		expired = true
	}
	m.mu.Lock()
	m.parked.Add(-1)
	m.lockWait.Observe(time.Since(start))
	if tick {
		w.t.tick.Disarm(!expired)
	}
	if expired {
		return fmt.Errorf("lock wait timed out after %v (application-level deadlock?)", lockWaitBound)
	}
	return w.aborted()
}

// pause is park for the retry loops, which hold no lock.
func (m *Manager) pause(w *waiter) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.park(w, true)
}

// wakeLocked ends every wait parked on a wake: each looks again at what
// it waits for, and at its abort.
func (m *Manager) wakeLocked() {
	if m.wake != nil {
		close(m.wake)
		m.wake = nil
	}
}

// Wake is wakeLocked for whoever aborts a wait from outside the manager
// (the scheduler cancelling a job), once the abort holds.
func (m *Manager) Wake() {
	m.mu.Lock()
	m.wakeLocked()
	m.mu.Unlock()
}

// gone is a handler's abort: its requester is dead or departed, and
// nobody is left to take the answer.
func (m *Manager) gone(rank int) error {
	if m.loc.Peer(rank).Gone() {
		return fmt.Errorf("dim: rank %d has left", rank)
	}
	return nil
}
