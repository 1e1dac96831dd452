package dim

import (
	"allscale/internal/dataitem"
	"allscale/internal/runtime"
)

// Locate cache (DESIGN.md §6f "Locality fast path").
//
// Every placement and every read-staging round used to walk the
// Fig. 5 index — O(log P) round trips concentrating on low-rank
// hosts. The cache keeps the []Located result of recent resolutions
// per (item, region) so the steady-state hot path resolves from local
// memory, under three coherence rules:
//
//  1. Entries may UNDERCOUNT ownership (a replica created elsewhere
//     after the fill is missed). That is harmless for every cache
//     consumer: placement hints and read staging only need some rank
//     that still holds the data. Growth therefore invalidates only
//     locally (cheap), never remotely.
//  2. Entries must never OVERCOUNT: a rank losing coverage (a writer
//     dropping its copy) revokes intersecting entries on every
//     live peer — synchronously, before the loss is acknowledged to
//     the requester — so once a migration completes, no rank keeps
//     placing work or directing fetches at the old owner. A fill
//     racing the revocation is rejected by the per-item generation
//     stamp; the narrow window where a pre-revocation walk result is
//     still in flight self-corrects at use: an Empty fetch reply
//     invalidates the entry and forces an authoritative re-walk.
//  3. Evicting the other copies of a write region never trusts the
//     cache, and rarely needs the index: it asks the directory, the
//     sharer records kept from the root copy on (itemState.root, lent).
//     Only a writer outside its root region walks the index, to find the
//     root copy. A replica in use is not removed but pinned where it is
//     and refreshed with the writer's result (keep and refresh): it loses
//     no coverage, so rule 2 has nothing to revoke and entries naming it
//     stay valid — a fetch directed at it waits for the refresh.
//
// Crash retraction (RetractEpoch) drops every entry, the root regions
// and the sharer records wholesale, and cache reads validate entry
// liveness, so a cached entry can never resurrect a dead rank's
// ownership.

// locateCacheCap bounds the number of cached resolutions per item;
// least-recently-used entries fall off the tail.
const locateCacheCap = 64

// lcEntry is one cached resolution of an item region.
type lcEntry struct {
	region  dataitem.Region
	all     bool // Owners-style (every copy) vs Lookup-style (first owner)
	entries []Located
	epoch   uint64
}

// methodCacheInval is the coverage-loss revocation RPC (rule 2).
const methodCacheInval = "dim.cinv"

type cinvArgs = itemRegion

func (m *Manager) handleCacheInval(_ int, args *cinvArgs) (*struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.items[args.Item]
	if !ok {
		return &struct{}{}, nil
	}
	if err := st.fits(args.Region); err != nil {
		return nil, err
	}
	m.dropIntersectingLocked(st, args.Region)
	return &struct{}{}, nil
}

// dropIntersectingLocked removes cached entries intersecting r and
// bumps the item's fill generation so in-flight walks cannot
// reinstate the revoked ownership. Callers hold m.mu.
func (m *Manager) dropIntersectingLocked(st *itemState, r dataitem.Region) {
	st.cgen++
	kept := st.lcache[:0]
	dropped := 0
	for _, e := range st.lcache {
		if e.region.Intersect(r).IsEmpty() {
			kept = append(kept, e)
		} else {
			dropped++
		}
	}
	st.lcache = kept
	if dropped > 0 {
		m.cacheInvals.Add(uint64(dropped))
	}
}

// invalidateLocatesLocked drops every cached entry of the item (local
// coverage changed or an authoritative walk contradicted the cache).
// Callers hold m.mu.
func (m *Manager) invalidateLocatesLocked(st *itemState) {
	st.cgen++
	if n := len(st.lcache); n > 0 {
		st.lcache = st.lcache[:0]
		m.cacheInvals.Add(uint64(n))
	}
}

// InvalidateLocates drops the cached resolutions of id intersecting r
// on this rank only (the remote half is revokeLocates).
func (m *Manager) InvalidateLocates(id ItemID, r dataitem.Region) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.items[id]; ok {
		m.dropIntersectingLocked(st, r)
	}
}

// SetLocateCache enables or disables the locate cache (ablations and
// the E13 before/after measurement); disabling drops all entries.
func (m *Manager) SetLocateCache(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheOff = !on
	if !on {
		for _, st := range m.items {
			st.lcache = st.lcache[:0]
			st.cgen++
		}
	}
}

// cacheGet returns a cached resolution for (id, r, all). A hit
// requires the current recovery epoch and only Member ranks among the
// entries — an entry naming a suspect, draining or gone rank is dropped
// on sight, so a cached map can never resurrect retracted ownership. The returned slice is shared: callers must not mutate.
func (m *Manager) cacheGet(id ItemID, r dataitem.Region, all bool) ([]Located, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cacheOff {
		return nil, false
	}
	st, ok := m.items[id]
	if !ok {
		return nil, false
	}
	for i, e := range st.lcache {
		if e.all != all || !e.region.Equal(r) {
			continue
		}
		stale := e.epoch != m.epoch
		for _, loc := range e.entries {
			stale = stale || loc.Rank != m.Rank() && m.loc.Peer(loc.Rank) != runtime.Member
		}
		if stale {
			st.lcache = append(st.lcache[:i], st.lcache[i+1:]...)
			m.cacheInvals.Inc()
			m.cacheMisses.Inc()
			return nil, false
		}
		// Move to front (LRU).
		if i > 0 {
			copy(st.lcache[1:i+1], st.lcache[:i])
			st.lcache[0] = e
		}
		m.cacheHits.Inc()
		return e.entries, true
	}
	m.cacheMisses.Inc()
	return nil, false
}

// cacheGen snapshots the item's fill generation before a walk.
func (m *Manager) cacheGen(id ItemID) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.items[id]; ok {
		return st.cgen
	}
	return 0
}

// cachePut stores a walk result, unless an invalidation raced the
// walk (generation moved since the pre-walk snapshot) — a stale fill
// could otherwise reinstate ownership revoked mid-walk.
func (m *Manager) cachePut(id ItemID, r dataitem.Region, all bool, entries []Located, gen uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cacheOff {
		return
	}
	st, ok := m.items[id]
	if !ok || st.cgen != gen {
		return
	}
	cp := make([]Located, len(entries))
	copy(cp, entries)
	e := lcEntry{region: r, all: all, entries: cp, epoch: m.epoch}
	for i := range st.lcache {
		if st.lcache[i].all == all && st.lcache[i].region.Equal(r) {
			st.lcache[i] = e
			return
		}
	}
	if len(st.lcache) >= locateCacheCap {
		st.lcache = st.lcache[:locateCacheCap-1]
	}
	st.lcache = append(st.lcache, lcEntry{})
	copy(st.lcache[1:], st.lcache)
	st.lcache[0] = e
}

// revokeLocates pushes a coverage loss to every live peer's cache
// (rule 2) and waits for the acknowledgements, so the loss is not
// observable anywhere before every stale claim of our ownership is
// gone. Must be called WITHOUT holding m.mu. Peers that are not
// Members are skipped best-effort: they are excluded from placement
// anyway, and a surviving stale entry self-corrects through an Empty
// fetch at next use.
func (m *Manager) revokeLocates(id ItemID, r dataitem.Region, skip int) {
	if m.size() == 1 {
		return
	}
	args := &cinvArgs{Item: id, Region: r}
	futs := make(map[int]*runtime.Future, m.size())
	for rank := 0; rank < m.size(); rank++ {
		if rank == m.Rank() || rank == skip || m.loc.Peer(rank) != runtime.Member {
			continue
		}
		futs[rank] = m.loc.CallAsync(rank, methodCacheInval, args, m.ctlOpt())
	}
	for _, f := range futs {
		f.Wait() // best-effort: an error leaves a stale entry that self-corrects at use
	}
}
