package dim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/runtime"
	"allscale/internal/trace"
	"allscale/internal/wire"
)

const (
	methodDestroy = "dim.destroy"
	methodReport  = "dim.report"
	methodFetch   = "dim.fetch"
	methodClaim   = "dim.claim"
	methodDrop    = "dim.drop"
	methodUnpin   = "dim.unpin"
	// methodCarry and methodReclaim are the notices of a part a reader
	// gave back (giveBack) and of its holder asking for it (reclaim).
	methodCarry   = "dim.carry"
	methodReclaim = "dim.reclaim"
	// methodResolveBatch coalesces many resolution sub-requests into
	// one frame per target rank (DESIGN.md §6f).
	methodResolveBatch = "dim.resolveBatch"
)

func (m *Manager) registerServices() {
	m.loc.Handle(methodDestroy, rpc(m.handleDestroy))
	m.loc.Handle(methodReport, rpc(m.handleReport))
	m.loc.Handle(methodFetch, rpc(m.handleFetch))
	m.loc.Handle(methodClaim, rpc(m.handleClaim))
	m.loc.Handle(methodDrop, rpc(m.handleDrop))
	m.loc.HandleInline(methodUnpin, rpc(m.handleUnpin)) // a refresh lands before the frame behind it
	m.loc.HandleInline(methodCarry, rpc(m.handleCarry)) // a claim is filed before the ship behind it
	m.loc.Handle(methodReclaim, rpc(m.handleReclaim))
	m.loc.Handle(methodResolveBatch, rpc(m.handleResolveBatch))
	m.loc.Handle(methodCacheInval, rpc(m.handleCacheInval))
	m.registerRecoveryServices()
}

// rpc adapts a typed handler to the runtime Method signature.
func rpc[A any, R any](fn func(from int, args *A) (*R, error)) func(int, []byte) ([]byte, error) {
	return func(from int, body []byte) ([]byte, error) {
		var args A
		if err := wire.Decode(body, &args); err != nil {
			return nil, err
		}
		reply, err := fn(from, &args)
		if err != nil {
			return nil, err
		}
		return wire.Encode(reply)
	}
}

// ---------------------------------------------------------------
// Item lifecycle
// ---------------------------------------------------------------

// CreateItem returns the global ID of a new data item of the given
// registered type ((create) transition). Nothing is sent: a rank makes
// the item's state where a request first names it (itemLocked).
func (m *Manager) CreateItem(typ dataitem.Type) (ItemID, error) {
	if _, err := m.reg.Lookup(typ.Name()); err != nil {
		return 0, fmt.Errorf("dim: create of unregistered type: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	id := MakeItemID(m.Rank(), dataitem.TypeCode(typ.Name()), m.seq)
	_, err := m.itemLocked(id)
	return id, err
}

// DestroyItem removes the data item ((destroy) transition): here at
// once, at every other rank when its ack-only dim.destroy notice lands.
// Nobody waits for the notices.
func (m *Manager) DestroyItem(id ItemID) error {
	args := &destroyArgs{ID: id}
	if _, err := m.handleDestroy(m.Rank(), args); err != nil {
		return err
	}
	for rank := 0; rank < m.size(); rank++ {
		if rank != m.Rank() && !m.loc.Peer(rank).Gone() {
			m.loc.Notify(rank, methodDestroy, args)
		}
	}
	return nil
}

// handleDestroy forgets the item here and fences it, so that a late
// request naming it finds it destroyed.
func (m *Manager) handleDestroy(_ int, args *destroyArgs) (*struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.typeOfLocked(args.ID); err != nil && !errors.Is(err, errDestroyed) {
		return nil, err
	}
	delete(m.items, args.ID)
	m.destroyed = m.destroyed.add(args.ID)
	m.wakeLocked()
	return &struct{}{}, nil
}

// errDestroyed marks a request naming an item destroyed here.
var errDestroyed = errors.New("destroyed")

// itemLocked returns the state of item id, made the first time a request
// names the item here (DESIGN.md §6f "A lazy catalog").
func (m *Manager) itemLocked(id ItemID) (*itemState, error) {
	if st, ok := m.items[id]; ok {
		return st, nil
	}
	typ, err := m.typeOfLocked(id)
	if err != nil {
		return nil, err
	}
	m.items[id] = newItemState(typ)
	return m.items[id], nil
}

// typeOfLocked returns the type item id names, unless it was destroyed or
// the ID names no rank or no registered type: such an item cannot exist.
func (m *Manager) typeOfLocked(id ItemID) (dataitem.Type, error) {
	if m.destroyed.has(id) {
		return nil, fmt.Errorf("dim: item %v at rank %d: %w", id, m.Rank(), errDestroyed)
	}
	if int(id>>48) >= m.size() {
		return nil, fmt.Errorf("dim: item %v names no rank of %d", id, m.size())
	}
	return m.reg.ByCode(uint16(id >> 32))
}

// fence holds the destroyed items as sorted, disjoint ranges [lo, hi) of
// their IDs less the type code. Items die in about the order they are
// made: a range per creator, and one per gap a live item leaves.
type fence [][2]uint64

func (f fence) has(id ItemID) bool {
	k := uint64(id) &^ (0xffff << 32)
	i := sort.Search(len(f), func(i int) bool { return f[i][1] > k })
	return i < len(f) && f[i][0] <= k
}

func (f fence) add(id ItemID) fence {
	k := uint64(id) &^ (0xffff << 32)
	i := sort.Search(len(f), func(i int) bool { return f[i][1] >= k })
	if i == len(f) || f[i][0] > k+1 {
		return slices.Insert(f, i, [2]uint64{k, k + 1})
	}
	f[i] = [2]uint64{min(f[i][0], k), max(f[i][1], k+1)}
	if i+1 < len(f) && f[i+1][0] == f[i][1] { // k closed the gap
		f[i][1] = f[i+1][1]
		f = slices.Delete(f, i+1, i+2)
	}
	return f
}

// itemFits is itemLocked for a request naming region r of the item,
// which r has to fit (fits).
func (m *Manager) itemFits(id ItemID, r dataitem.Region) (*itemState, error) {
	st, err := m.itemLocked(id)
	if err == nil {
		err = st.fits(r)
	}
	return st, err
}

// Coverage returns the region of the item currently present in this
// process's fragment.
func (m *Manager) Coverage(id ItemID) (dataitem.Region, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(id)
	if err != nil {
		return nil, err
	}
	return st.frag.Region(), nil
}

// Fragment exposes the local fragment of the item for task bodies;
// access is legitimate only under granted requirements.
func (m *Manager) Fragment(id ItemID) (dataitem.Fragment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(id)
	if err != nil {
		return nil, err
	}
	return st.frag, nil
}

// ---------------------------------------------------------------
// Hierarchical index maintenance (Fig. 5)
// ---------------------------------------------------------------

// reportUp propagates the local fragment coverage into the index
// (reportLocked). The report of an item destroyed meanwhile ends
// wherever it meets the item gone: a republish racing a job's destroy
// must still get to the allocation sync.
func (m *Manager) reportUp(id ItemID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.items[id]; ok {
		return m.reportLocked(id, st, nil, -1)
	}
	return nil
}

// reportLost reports lost the part of an item a pin ended without its
// refresh (reportLocked, which wakes the waits). Best effort: a report that
// fails leaves an index entry a fetch answers Empty to (rule 2 in cache.go).
func (m *Manager) reportLost(id ItemID, lost dataitem.Region, asker int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.items[id]; ok {
		_ = m.reportLocked(id, st, lost, asker)
	}
}

// reportLocked makes a change of the item's local coverage known before
// returning, outside the lock, which is held on entry and on return: the
// coverage is propagated up the index under a fresh leaf report version,
// and cached maps here are dropped. A loss (lost) also revokes the peer
// caches naming this rank for it (rule 2 in cache.go) and wakes the
// waits. The rank that asked for the removal is skipped: it holds the
// region itself, so an entry of its own that still names this rank
// cannot misdirect a fetch, and it drops all its entries when its own
// coverage next changes.
func (m *Manager) reportLocked(id ItemID, st *itemState, lost dataitem.Region, asker int) error {
	total := st.frag.Region()
	st.ver[1]++
	seq := m.stampLocked(st.ver[1])
	m.invalidateLocatesLocked(st)
	m.mu.Unlock()
	err := m.propagate(id, 1, total, seq)
	if err == nil && lost != nil {
		m.revokeLocates(id, lost, asker)
	}
	m.mu.Lock()
	if lost != nil {
		m.wakeLocked()
	}
	return err
}

// propagate walks the hierarchy upward from this rank's node at level l,
// whose total coverage changed to `total` under report version seq,
// updating parents until the root. Local hops stay in-process; the first
// remote hop hands the walk to the parent's host via dim.report. Stale
// reports (older seq than the side's last applied one) terminate the
// walk — a newer report has already propagated past this point.
func (m *Manager) propagate(id ItemID, l int, total dataitem.Region, seq uint64) error {
	for root := rootLevel(m.size()); l < root; l++ {
		// The node identity is its subtree's lowest rank; the parent's
		// host is the left-most live rank of the parent's subtree, so
		// the walk routes around dead ranks (and degenerates to Fig. 5's
		// static assignment with zero deaths).
		plo := nodeLo(m.Rank(), l+1)
		left := nodeLo(m.Rank(), l) == plo
		if p := m.liveHost(plo, l+1); p != m.Rank() {
			return m.loc.Call(p, methodReport, &reportArgs{Item: id, Level: l + 1, Left: left, Region: total, Seq: seq}, nil, m.ctlOpt())
		}
		var fresh bool
		var err error
		if total, seq, fresh, err = m.applyReport(id, l+1, left, total, seq); err != nil || !fresh {
			return err
		}
	}
	return nil
}

// applyReport stores a child's coverage at the inner node at `level`
// hosted here (report), returning the node's new total coverage and this
// node's own report version for the next hop.
func (m *Manager) applyReport(id ItemID, level int, left bool, region dataitem.Region, seq uint64) (dataitem.Region, uint64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemFits(id, region)
	if errors.Is(err, errDestroyed) {
		return nil, 0, false, nil // reportUp
	}
	if err != nil {
		return nil, 0, false, err
	}
	total, ver, fresh, shrunk := st.report(level, left, region, seq)
	if shrunk {
		m.invalidateLocatesLocked(st)
	}
	if !fresh {
		return nil, 0, false, nil
	}
	return total, m.stampLocked(ver), true, nil
}

func (m *Manager) handleReport(_ int, args *reportArgs) (*struct{}, error) {
	total, seq, fresh, err := m.applyReport(args.Item, args.Level, args.Left, args.Region, args.Seq)
	if err != nil {
		return nil, err
	}
	if fresh {
		if err := m.propagate(args.Item, args.Level, total, seq); err != nil {
			return nil, err
		}
	}
	return &struct{}{}, nil
}

// ---------------------------------------------------------------
// Region location resolution (Algorithm 1)
// ---------------------------------------------------------------

// Lookup locates the region r of item id, starting — as in
// Algorithm 1 — at this process's leaf and escalating toward the
// root. The result maps disjoint region segments to one hosting rank
// each; segments of r nowhere allocated are absent from the result.
// Cached resolutions are served from local memory; the span detail
// distinguishes "hit" from "walk".
func (m *Manager) Lookup(id ItemID, r dataitem.Region) ([]Located, error) {
	m.locates.Inc()
	if out, ok := m.cacheGet(id, r, false); ok {
		sp := m.loc.Tracer().Begin("dim.locate", "hit", 0)
		sp.SetTask(uint64(id))
		sp.End()
		return out, nil
	}
	sp := m.loc.Tracer().Begin("dim.locate", "walk", 0)
	sp.SetTask(uint64(id))
	gen := m.cacheGen(id)
	var out []Located
	res, err := m.resolveMulti([]batchReq{{Item: id, Region: r, Level: 1}})
	if err == nil {
		out = res[0]
		m.cachePut(id, r, false, out, gen)
	}
	sp.SetErr(err)
	sp.End()
	return out, err
}

// resolveMulti is RESOLVE(d, r, l) as a batched engine, behind Lookup
// and rootWalk (Descend suppresses parent escalation for calls walking
// down into subtrees, guaranteeing termination): each request is
// processed against the locally hosted index nodes exactly as
// Algorithm 1 prescribes (leaf intersection, child-side consultation
// with remaining-region subtraction, parent escalation), but instead of
// issuing one RPC per request per hierarchy level, every remote
// sub-request a local pass produces — right children at any level,
// parent escalations — is coalesced into a single dim.resolveBatch frame
// per target rank. The remote side recurses with the same batching, so a
// full walk costs O(log P) frames regardless of the requirement count.
func (m *Manager) resolveMulti(reqs []batchReq) ([][]Located, error) {
	out := make([][]Located, len(reqs))
	type remoteSub struct {
		req batchReq
		idx int
	}
	remotes := make(map[int][]remoteSub)
	var order []int

	var process func(idx int, rq batchReq) error
	process = func(idx int, rq batchReq) error {
		r := rq.Region
		if r == nil || r.IsEmpty() {
			return nil
		}
		l := rq.Level
		m.mu.Lock()
		st, err := m.itemLocked(rq.Item)
		var cov, lr, rr dataitem.Region
		if err == nil {
			cov = st.frag.Region()
			if s := st.index[l]; s != nil {
				lr, rr = s.cov[0], s.cov[1]
			} else if l > 1 {
				lr, rr = st.typ.EmptyRegion(), st.typ.EmptyRegion()
			}
		}
		m.mu.Unlock()
		if err != nil {
			return err
		}
		if l == 1 {
			// Leaf level: add the local share to the result.
			ri := r.Intersect(cov)
			if !ri.IsEmpty() {
				out[idx] = append(out[idx], Located{Region: ri, Rank: m.Rank()})
				r = r.Difference(ri)
			}
		} else {
			// Inner level: consult the children.
			lo := nodeLo(m.Rank(), l)
			half := 1 << uint(l-2)
			if sub := r.Intersect(lr); !sub.IsEmpty() {
				// The host of an inner node is the left-most live rank of
				// its subtree, so a live left child is always hosted here.
				// A fully-dead left child (until its coverage is retracted)
				// has no reachable data: its part is reported at the dead
				// rank, which every reader of a walk takes as unreachable.
				if h := m.liveHost(lo, l-1); h == m.Rank() || h == -1 {
					if h == -1 {
						out[idx] = append(out[idx], Located{Region: sub, Rank: m.goneHost(lo, l-1)})
					} else if err := process(idx, batchReq{Item: rq.Item, Region: sub, Level: l - 1, Descend: true, All: rq.All}); err != nil {
						return err
					}
					if !rq.All {
						r = r.Difference(lr)
					}
				}
			}
			if rq.All || !r.IsEmpty() {
				if sub := r.Intersect(rr); !sub.IsEmpty() {
					child := batchReq{Item: rq.Item, Region: sub, Level: l - 1, Descend: true, All: rq.All}
					switch rc := m.liveHost(lo+half, l-1); rc {
					case -1:
						out[idx] = append(out[idx], Located{Region: sub, Rank: m.goneHost(lo+half, l-1)})
					case m.Rank():
						// The whole left subtree is dead and this rank took
						// over the right child too: descend locally.
						if err := process(idx, child); err != nil {
							return err
						}
					default:
						if _, seen := remotes[rc]; !seen {
							order = append(order, rc)
						}
						remotes[rc] = append(remotes[rc], remoteSub{req: child, idx: idx})
					}
					if !rq.All {
						r = r.Difference(rr)
					}
				}
			}
		}

		// All-mode walks descend only; fully resolved or downward
		// lookup calls are done too.
		if rq.All || r.IsEmpty() || rq.Descend {
			return nil
		}
		// Escalate to the parent.
		if l < rootLevel(m.size()) {
			esc := batchReq{Item: rq.Item, Region: r, Level: l + 1}
			p := m.liveHost(nodeLo(m.Rank(), l+1), l+1)
			if p == m.Rank() {
				return process(idx, esc)
			}
			if _, seen := remotes[p]; !seen {
				order = append(order, p)
			}
			remotes[p] = append(remotes[p], remoteSub{req: esc, idx: idx})
		}
		return nil
	}

	for i, rq := range reqs {
		if err := process(i, rq); err != nil {
			return nil, err
		}
	}
	// One frame per target rank for everything the local pass deferred.
	for _, dst := range order {
		subs := remotes[dst]
		breqs := make([]batchReq, len(subs))
		for j, s := range subs {
			breqs[j] = s.req
		}
		replies, err := m.callResolveBatch(dst, breqs)
		if err != nil {
			return nil, err
		}
		for j, s := range subs {
			out[s.idx] = append(out[s.idx], replies[j]...)
		}
	}
	return out, nil
}

// callResolveBatch sends reqs to dst as one dim.resolveBatch frame and
// returns one result per request.
func (m *Manager) callResolveBatch(dst int, reqs []batchReq) ([][]Located, error) {
	var reply batchReply
	m.locateRPCs.Inc()
	if err := m.loc.Call(dst, methodResolveBatch, &batchArgs{Reqs: reqs}, &reply, m.ctlOpt()); err != nil {
		return nil, err
	}
	if len(reply.Replies) != len(reqs) {
		return nil, fmt.Errorf("dim: resolveBatch reply size %d != %d", len(reply.Replies), len(reqs))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for j, entries := range reply.Replies {
		st, err := m.itemLocked(reqs[j].Item)
		if err != nil {
			return nil, err
		}
		if err := st.fitsLocated(entries); err != nil {
			return nil, fmt.Errorf("dim: resolveBatch reply from rank %d: %w", dst, err)
		}
	}
	return reply.Replies, nil
}

// handleResolveBatch serves a peer's resolution requests, whose regions
// have to fit their items; a nil one asks for nothing (resolveMulti
// skips it).
func (m *Manager) handleResolveBatch(_ int, args *batchArgs) (*batchReply, error) {
	m.mu.Lock()
	for _, rq := range args.Reqs {
		if rq.Region == nil {
			continue
		}
		if _, err := m.itemFits(rq.Item, rq.Region); err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	m.mu.Unlock()
	res, err := m.resolveMulti(args.Reqs)
	if err != nil {
		return nil, err
	}
	return &batchReply{Replies: res}, nil
}

// Owners returns every copy of every segment of r: unlike Lookup it
// descends the whole hierarchy from the root and does not stop at the
// first owner, so replicated segments appear once per holding rank.
// A write acquisition outside its rank's root region uses it to find
// the root copy and the replicas — which is why Owners is always an
// authoritative walk and never serves from the locate cache: a cached
// map may undercount copies created after the fill. Placement and
// staging use OwnersHint/OwnersMulti instead.
func (m *Manager) Owners(id ItemID, r dataitem.Region) ([]Located, error) {
	return m.locateOwners(id, r, nil, 0)
}

// OwnersHint is the cached variant of Owners for consumers that
// tolerate an undercounting map (placement, read staging): any rank
// listed still held the segment when the entry was filled, and every
// coverage loss revokes intersecting entries system-wide before it
// completes. The result must not be mutated.
func (m *Manager) OwnersHint(id ItemID, r dataitem.Region) ([]Located, error) {
	return m.locateOwners(id, r, r, 0)
}

// locateOwners resolves every copy of r by the authoritative walk —
// unless cached is set and the cache holds a resolution of that region
// (r itself for OwnersHint; the whole requirement for read staging,
// which the placement of the same task has usually just resolved),
// which is then returned instead. The dim.locate span is attached to
// parent — the dim.acquire span when an acquisition resolves.
func (m *Manager) locateOwners(id ItemID, r, cached dataitem.Region, parent trace.SpanID) ([]Located, error) {
	m.locates.Inc()
	detail := "owners"
	if cached != nil {
		if out, ok := m.cacheGet(id, cached, true); ok {
			sp := m.loc.Tracer().Begin("dim.locate", "owners-hit", parent)
			sp.SetTask(uint64(id))
			sp.End()
			return out, nil
		}
		detail = "owners-walk"
	}
	sp := m.loc.Tracer().Begin("dim.locate", detail, parent)
	sp.SetTask(uint64(id))
	gen := m.cacheGen(id)
	var out []Located
	res, err := m.rootWalk([]Requirement{{Item: id, Region: r}})
	if err == nil {
		out = res[0]
		m.cachePut(id, r, true, out, gen)
	}
	sp.SetErr(err)
	sp.End()
	return out, err
}

// OwnersMulti resolves the ownership of several requirements at once:
// cached entries are served from memory and the misses share one
// batched walk (one resolveBatch frame per rank per level instead of
// one RPC per requirement per level). The per-requirement results
// carry the OwnersHint staleness contract and must not be mutated.
func (m *Manager) OwnersMulti(reqs []Requirement) ([][]Located, error) {
	out := make([][]Located, len(reqs))
	var missIdx []int
	for i, rq := range reqs {
		m.locates.Inc()
		if ent, ok := m.cacheGet(rq.Item, rq.Region, true); ok {
			out[i] = ent
		} else {
			missIdx = append(missIdx, i)
		}
	}
	detail := "multi-hit"
	if len(missIdx) > 0 {
		detail = "multi-walk"
	}
	sp := m.loc.Tracer().Begin("dim.locate", detail, 0)
	defer sp.End()
	if len(missIdx) == 0 {
		return out, nil
	}
	miss := make([]Requirement, len(missIdx))
	gens := make([]uint64, len(missIdx))
	for j, i := range missIdx {
		miss[j] = reqs[i]
		gens[j] = m.cacheGen(reqs[i].Item)
	}
	res, err := m.rootWalk(miss)
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	for j, i := range missIdx {
		out[i] = res[j]
		m.cachePut(reqs[i].Item, reqs[i].Region, true, res[j], gens[j])
	}
	return out, nil
}

// rootWalk is the authoritative full-descent resolution of reqs from
// the live index root, collecting every copy (replicated segments
// appear once per holding rank): locally where this rank hosts the
// root, otherwise as one dim.resolveBatch frame to the rank that does.
func (m *Manager) rootWalk(reqs []Requirement) ([][]Located, error) {
	root := rootLevel(m.size())
	rh := m.liveHost(0, root)
	if rh < 0 {
		return nil, fmt.Errorf("dim: no live index root host")
	}
	breqs := make([]batchReq, len(reqs))
	for i, rq := range reqs {
		breqs[i] = batchReq{Item: rq.Item, Region: rq.Region, Level: root, Descend: true, All: true}
	}
	if m.Rank() == rh {
		return m.resolveMulti(breqs)
	}
	return m.callResolveBatch(rh, breqs)
}

// ---------------------------------------------------------------
// Data movement services
// ---------------------------------------------------------------

// handleFetch serves a copy of the requested region of the local
// fragment (replicate), waiting while a write lock overlaps it.
func (m *Manager) handleFetch(from int, args *fetchArgs) (*fetchReply, error) {
	w := waiter{abort: func() error { return m.gone(from) }}
	defer w.done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		st, err := m.itemFits(args.Item, args.Region)
		if err != nil {
			return nil, err
		}
		// A request may be served after its sender was declared dead and
		// its pins were released (ReleasePinsOf runs once, after the
		// mark): a pin taken now would never be confirmed and would block
		// writers for good.
		if err := m.gone(from); err != nil {
			return nil, fmt.Errorf("dim: fetch of %v: %w", args.Item, err)
		}
		reply, err := st.replicate(from, args.Region, m.pinTokenLocked())
		if err != errWait {
			return reply, err
		}
		if m.reclaimLocked(args.Item, args.Region, noPin) {
			continue
		}
		if err := m.park(&w, false); err != nil {
			return nil, fmt.Errorf("dim: fetch of %v blocked on locks: %w", args.Item, err)
		}
	}
}

// pinTokenLocked returns a fresh pin token, unique system-wide and clear
// of every acquisition's.
func (m *Manager) pinTokenLocked() uint64 {
	m.pinSeq++
	return 1<<63 | uint64(m.Rank())<<48 | m.pinSeq
}

// handleDrop ends the local copy of a region on behalf of a writer that
// holds its own copy under a write lock (drop), waiting while a lock
// overlaps the region, and makes the removal known. An evictor that has
// left while its drop waits is owed nothing (gone). A claim here on the
// region yields first (yield): the copy it would write is going. A part
// given back here that holds the drop up, waiting or turned away, is
// asked back (reclaimLocked).
func (m *Manager) handleDrop(from int, args *dropArgs) (*dropReply, error) {
	w := waiter{abort: func() error { return m.gone(from) }}
	defer w.done()
	var yields []refresh
	defer func() { m.sendRefreshes(yields) }() // after the unlock
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		st, err := m.itemFits(args.Item, args.Region)
		if err != nil {
			return nil, err
		}
		yields = st.yield(0, args.Region, yields)
		reply, evicted, err := st.drop(from, m.Rank(), args.Region, m.pinTokenLocked())
		if err == errWait {
			if m.reclaimLocked(args.Item, args.Region, from) {
				continue
			}
			if err := m.park(&w, false); err != nil {
				return nil, fmt.Errorf("dim: drop of %v blocked on locks: %w", args.Item, err)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		if reply.Contended {
			m.reclaimLocked(args.Item, args.Region, from)
			return reply, nil
		}
		if reply.PinToken != 0 {
			m.dropKept.Inc()
		}
		if evicted != nil {
			m.dropEvicted.Inc()
			if err := m.reportLocked(args.Item, st, evicted, from); err != nil {
				// The evictor will not learn of the pin: the kept part goes
				// on as the replica it was.
				if reply.PinToken != 0 {
					st.end(reply.PinToken)
					m.wakeLocked()
				}
				return nil, err
			}
		}
		return reply, nil
	}
}

// handleUnpin releases the pin token (unpin) wherever it is held here;
// a refresh whose pin is gone installs nothing. The stale part of a
// write-mode pin that came without its refresh is reported lost from a
// goroutine of its own: the report waits on the index, and the handler
// is served on the delivery goroutine (HandleInline).
func (m *Manager) handleUnpin(from int, args *unpinArgs) (*struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, st := range m.items {
		lost, ok := st.unpin(args.Token, args.Data, args.Read)
		if !ok {
			continue
		}
		if lost.IsEmpty() {
			m.wakeLocked()
		} else {
			m.loc.Go(func() { m.reportLost(id, lost, from) })
		}
		return &struct{}{}, nil
	}
	if len(args.Data) > 0 {
		m.refreshStale.Inc()
	}
	return &struct{}{}, nil
}

// handleClaim answers a claim at the index root host (grantClaim).
func (m *Manager) handleClaim(_ int, args *claimArgs) (*claimReply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemFits(args.Item, args.Region)
	if err != nil {
		return nil, err
	}
	return &claimReply{Granted: st.grantClaim(args, m.epoch)}, nil
}

// claim asks the root host which part of r this process may allocate
// (alloc) and hold the root copy of (root), and takes up the root role
// of the grant (takeRoot).
func (m *Manager) claim(id ItemID, r dataitem.Region, alloc, root bool) (dataitem.Region, error) {
	rh := m.liveHost(0, rootLevel(m.size()))
	if rh < 0 {
		return nil, fmt.Errorf("dim: no live index root host")
	}
	epoch := m.Epoch()
	var reply claimReply
	if err := m.loc.Call(rh, methodClaim, &claimArgs{Item: id, Region: r, Alloc: alloc, Root: root, Epoch: epoch}, &reply, m.ctlOpt()); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(id)
	if err != nil {
		return nil, err
	}
	if err := st.fits(reply.Granted); err != nil {
		return nil, fmt.Errorf("dim: claim reply from rank %d: %w", rh, err)
	}
	return st.takeRoot(reply.Granted, epoch, m.epoch), nil
}

// ---------------------------------------------------------------
// Locks
// ---------------------------------------------------------------

// Acquire grants the task identified by token all given requirements,
// following the model's discipline that locks imply presence (the
// (start) rule takes locks only where the data already is):
//
//  1. stage — pull/allocate the required data into the local fragment
//     while holding no locks (so a staging task can never be part of
//     a wait cycle);
//  2. lock — atomically take all locks, provided no conflicting lock
//     exists and the staged coverage is still local (a racing
//     migration sends us back to staging);
//  3. validate — for write requirements, end every other copy of the
//     region (restoring exclusive writes): the replicas on record with
//     this rank, and outside its root region whatever the index still
//     lists. A replica in use at its holder is not removed but held
//     there under a write-mode pin, and refreshed with the new content
//     when the token is released.
//
// On failure all locks of the token are released.
//
// Scheduling discipline: the task scheduler should avoid placing tasks
// with overlapping write requirements on different processes at once
// (Algorithm 2 routes by write requirement); such tasks still execute
// correctly, but steal the overlap from each other (see drop).
func (m *Manager) Acquire(token uint64, reqs []Requirement) error {
	return m.AcquireFor(token, reqs, 0, nil)
}

// AcquireFor is Acquire with an explicit parent span (the acquiring
// task's exec span), emitting a dim.acquire span and feeding the
// acquire-wait histogram with the stage-to-grant latency. abort, if
// not nil, ends the acquisition's lock waits with its error once the
// task no longer needs the data (see waiter). A failed acquisition
// leaves the claims the task brought along (TakeCarried) in place: the
// task's Release ends them as it leaves.
func (m *Manager) AcquireFor(token uint64, reqs []Requirement, parent trace.SpanID, abort func() error) error {
	m.acquires.Inc()
	sp := m.loc.Tracer().Begin("dim.acquire", "", parent)
	sp.SetTask(token)
	start := time.Now()
	w := waiter{abort: abort}
	err := m.acquire(token, reqs, &w, sp.SpanID())
	w.done()
	m.acquireWait.Observe(time.Since(start))
	sp.SetErr(err)
	sp.End()
	return err
}

// acquire runs the stage-lock-validate protocol under the wait w; span
// is the surrounding dim.acquire span, parent of the locate spans.
func (m *Manager) acquire(token uint64, reqs []Requirement, w *waiter, span trace.SpanID) error {
	byItem := func(a, b Requirement) int { return cmp.Compare(a.Item, b.Item) }
	sorted := reqs
	if !slices.IsSortedFunc(reqs, byItem) {
		sorted = slices.Clone(reqs)
		slices.SortFunc(sorted, byItem)
	}
	for {
		for _, rq := range sorted {
			if err := m.ensureLocal(rq, w, span); err != nil {
				return err
			}
		}
		ok, yields, err := m.tryLockAll(token, sorted, w)
		m.sendRefreshes(yields)
		if err != nil {
			return err
		}
		if !ok {
			continue // coverage changed under us: re-stage
		}
		if err := m.enforceExclusive(token, sorted, w, span); err != nil {
			m.Release(token)
			if !errors.Is(err, errContended) {
				return err
			}
			// A lower rank has locked a copy of one of our write regions
			// too, and its eviction of ours waits behind the locks just
			// released. Let it through, then come back for the data.
			if perr := m.pause(w); perr != nil {
				return fmt.Errorf("%w: %w", err, perr)
			}
			continue
		}
		return nil
	}
}

// tryLockAll takes all locks atomically (start). It waits while
// conflicting locks exist; once conflict-free it verifies that the staged
// data is still locally present — if a concurrent migration stole it, it
// returns false so the caller re-stages. Once locked, the claims the task
// brought along are its acquisition's pins, and another task's claim on
// a region it writes yields (start): it returns their refreshes, for the
// caller to send.
func (m *Manager) tryLockAll(token uint64, reqs []Requirement, w *waiter) (bool, []refresh, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var behindPin time.Time // when a kept replica's pin was first in the way
	for {
		blocked, byRefresh := false, false
		for _, rq := range reqs {
			st, err := m.itemLocked(rq.Item)
			if err != nil {
				return false, nil, err
			}
			if blocked, byRefresh = st.blocked(token, rq.Mode, rq.Region); blocked {
				break
			}
		}
		if blocked {
			if byRefresh && behindPin.IsZero() {
				behindPin = time.Now()
			}
			asked := false
			for _, rq := range reqs {
				asked = m.reclaimLocked(rq.Item, rq.Region, noPin) || asked
			}
			if asked {
				continue
			}
			if err := m.park(w, false); err != nil {
				return false, nil, fmt.Errorf("dim: acquire at rank %d: %w", m.Rank(), err)
			}
			continue
		}
		if !behindPin.IsZero() {
			m.refreshWait.Observe(time.Since(behindPin))
		}
		for _, rq := range reqs {
			if st, _ := m.itemLocked(rq.Item); !st.present(rq.Region) {
				return false, nil, nil
			}
		}
		var yields []refresh
		for _, rq := range reqs {
			st, _ := m.itemLocked(rq.Item)
			yields = st.start(token, rq.Mode, rq.Region, yields)
		}
		return true, yields, nil
	}
}

// enforceExclusive restores single-copy ownership of all write
// regions after the locks are taken: it is done with a region once the
// local copy is the root copy and every sharer record inside it names a
// copy this acquisition holds pinned (notHeld) — storage its holder
// cannot read until Release has refreshed it, not a copy.
//
// The copies on record here are evicted first, and theirs (evict). If
// that leaves the region inside root, all copies there were are gone or
// held (rule 3 in cache.go) — no index walk. Otherwise the root copy is
// elsewhere and the authoritative walk is asked where: every holder it
// lists is evicted, the root holder among them hands its role and its
// records over, and the loop starts again with those. A walk is a
// sequence of visits, not a snapshot — a copy made and its source
// evicted behind the visits escapes it — so a clean walk proves
// nothing by itself: this rank then asks the index root host for the
// root role, which is granted only where no root copy exists (the first
// write after a recovery reset), and otherwise looks again. Why no wait
// cycle can form and no copy survives a write with its old content is
// argued in DESIGN.md §6f and checked by TestTransitionCoreProperties.
func (m *Manager) enforceExclusive(token uint64, reqs []Requirement, w *waiter, span trace.SpanID) error {
	for _, rq := range reqs {
		if rq.Mode != Write {
			continue
		}
		walked, evicting := false, false
		for {
			sharers, unrooted := m.sharersOf(token, rq.Item, rq.Region)
			if len(sharers) > 0 {
				for _, o := range sharers {
					if err := m.evict(token, rq.Item, o, span); err != nil {
						return err
					}
				}
				// An evicted holder hands over its root role: what was
				// outside root before the drops may be inside it now.
				continue
			}
			if unrooted.IsEmpty() {
				break
			}
			walked = true
			owners, err := m.locateOwners(rq.Item, rq.Region, nil, span)
			if err != nil {
				return err
			}
			// A copy this acquisition holds pinned is still coverage to the
			// index, and not the walk's concern.
			owners = m.notHeld(token, rq.Item, owners...)
			foreign := false
			for _, o := range owners {
				if o.Rank == m.Rank() {
					continue
				}
				foreign = true
				if err := m.evict(token, rq.Item, o, span); err != nil {
					return err
				}
			}
			if foreign && !evicting {
				evicting = true // progress: walk again at once
				continue
			}
			if !foreign {
				evicting = false
				granted, err := m.claim(rq.Item, unrooted, false, true)
				if err != nil {
					return err
				}
				if !granted.IsEmpty() {
					continue
				}
				// The root copy exists and is changing hands out of the
				// walk's sight; its new holder will show up.
				m.revokeBackoffs.Inc()
			}
			// No root copy to take over yet, or copies made again behind
			// the walk that evicted them: back off before walking again.
			if err := m.pause(w); err != nil {
				return fmt.Errorf("dim: write region %v of %v stays shared: %w", rq.Region, rq.Item, err)
			}
		}
		if walked {
			m.revokeWalked.Inc()
		} else {
			m.revokeDirect.Inc()
		}
	}
	return nil
}

// Release drops all locks held by token, and ends the pins it holds
// (take): the replicas a write acquisition left pinned at their holders,
// and the claims a task that leaves brought along, are owed its result.
// Their parts are extracted while the write lock still stands and sent
// with the dim.unpin that releases each pin (sendRefreshes): the pin keeps
// every reader of the stale bytes out until the refresh has arrived. What
// token read of a writer's refresh goes back to that writer (giveBack),
// in a dim.carry notice behind the refreshes.
func (m *Manager) Release(token uint64) {
	var out []refresh
	var back []carryNote
	m.mu.Lock()
	for id, st := range m.items {
		out = st.take(token, out)
		if read := st.end(token); read != nil && len(st.refreshed) > 0 {
			for _, g := range st.giveBack(m.Rank(), read, m.pinTokenLocked, nil) {
				m.dropKept.Inc()
				m.dropGiven.Inc()
				back = append(back, carryNote{g.rank, carryArgs{Carried{Item: id, Kept: g.kept, Token: g.token}, m.epoch}})
			}
		}
	}
	m.wakeLocked()
	m.mu.Unlock()
	m.sendRefreshes(out)
	if len(back) == 0 {
		return
	}
	for i := range back {
		m.loc.Notify(back[i].rank, methodCarry, &back[i].args)
	}
	// Only now may a wait ask a part back: the ask follows the notice on
	// the link, and the notice is served in frame order.
	m.mu.Lock()
	for _, b := range back {
		if st, ok := m.items[b.args.Item]; ok {
			st.give(b.args.Token)
		}
	}
	m.wakeLocked()
	m.mu.Unlock()
}

// LockedRegions returns the regions of an item locked by granted
// requirements (for tests and monitoring).
func (m *Manager) LockedRegions(id ItemID) (read, write []dataitem.Region, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(id)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range st.locks {
		if e.pin != noPin {
			continue // a copy in flight or awaiting its refresh, not a granted requirement
		}
		if e.mode == Write {
			write = append(write, e.region)
		} else {
			read = append(read, e.region)
		}
	}
	return read, write, nil
}

// Pins returns how many pins — of either mode, plus the writer's records
// of those held elsewhere for this rank — are outstanding: zero at
// quiescence (for tests and monitoring). A standing claim and the pin
// given back for it wait for nobody, and do not count.
func (m *Manager) Pins() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.items {
		for _, h := range st.held {
			if h.owner != standing {
				n++
			}
		}
		for _, e := range st.locks {
			if e.pin != noPin && e.back != backGiven {
				n++
			}
		}
	}
	return n
}

// ensureLocal stages one requirement's data into the local fragment:
// it returns as soon as nothing of the region is missing. Reads and
// writes stage alike, by copying — whether a write region has other
// copies is not staging's concern: enforceExclusive evicts them, once,
// under the lock.
//
// Each round resolves the missing part, exactly once — through the
// locate cache, or after a staleness signal by the authoritative walk —
// and tracks post-fetch coverage from the fetch replies instead of
// re-resolving mid-round.
func (m *Manager) ensureLocal(rq Requirement, w *waiter, span trace.SpanID) error {
	authoritative := false
	for {
		// Coverage is purely local (no RPC): recompute per round, so
		// progress made by concurrent stagings on this rank counts.
		cov, err := m.Coverage(rq.Item)
		if err != nil {
			return err
		}
		missing := rq.Region.Difference(cov)
		if missing.IsEmpty() {
			return nil
		}
		// Only the missing part is worth a walk; short of one, the cached
		// resolution of the whole requirement will do.
		var cached dataitem.Region
		if !authoritative {
			cached = rq.Region
		}
		owners, err := m.locateOwners(rq.Item, missing, cached, span)
		if err != nil {
			return err
		}

		progressed, stale := false, false
		unresolved := missing
		// Copy the missing data from its holders. A part reported at a
		// rank this rank holds gone has no live host: unless a live
		// holder listed beside it supplies it, staging fails at once.
		var lost dataitem.Region
		for _, o := range owners {
			unresolved = unresolved.Difference(o.Region)
			want := o.Region.Intersect(missing)
			if o.Rank == m.Rank() || want.IsEmpty() {
				continue
			}
			if m.loc.Peer(o.Rank).Gone() {
				if lost == nil {
					lost = want
				} else {
					lost = lost.Union(want)
				}
				continue
			}
			var reply fetchReply
			err := m.loc.Call(o.Rank, methodFetch, &fetchArgs{Item: rq.Item, Region: want}, &reply, m.dataOpt(), runtime.WithParent(span))
			if err != nil {
				return fmt.Errorf("dim: fetch %v from rank %d: %w", rq.Item, o.Rank, err)
			}
			if reply.Empty {
				// The holder no longer covers the segment: the map was
				// stale (a cached entry racing an eviction, or a walk
				// result overtaken by one). Drop the entry and resolve
				// authoritatively next round.
				m.InvalidateLocates(rq.Item, want)
				stale = true
				continue
			}
			// Grow only by what the source actually exported; a
			// concurrent eviction may have shrunk it below `want`.
			insErr := m.insertLocal(rq.Item, reply.Part, reply.Data)
			// The copy is registered (or the insert failed): release the
			// source pin either way. Nobody waits for the answer — the
			// pin has done its work, ordering the insert before any drop
			// the source may send or point here — but it is a notice the
			// link resends until the source acks it, across a break too.
			m.loc.Notify(o.Rank, methodUnpin, &unpinArgs{Token: reply.PinToken}, runtime.WithParent(span))
			if insErr != nil {
				return insErr
			}
			missing = missing.Difference(reply.Part)
			progressed = true
		}

		if lost != nil {
			if l := lost.Intersect(missing); !l.IsEmpty() {
				return fmt.Errorf("dim: staging %v at rank %d: region %v has no live host: %w", rq.Item, m.Rank(), l, runtime.ErrPeerFailed)
			}
		}
		// Allocate never-touched parts (first-touch claim at the root).
		if !unresolved.IsEmpty() {
			granted, err := m.claim(rq.Item, unresolved, true, true)
			if err != nil {
				return err
			}
			if !granted.IsEmpty() {
				if err := m.growLocal(rq.Item, granted); err != nil {
					return err
				}
				progressed = true
			}
			if !authoritative && !unresolved.Difference(granted).IsEmpty() {
				// Allocated somewhere our cached map does not know
				// about: the entry undercounts, re-walk.
				m.InvalidateLocates(rq.Item, unresolved)
				stale = true
			}
		}

		if stale {
			authoritative = true
		}
		if !progressed && !stale {
			// Somebody else is mid-allocation or mid-report; back off
			// until the index reflects it.
			if err := m.pause(w); err != nil {
				return fmt.Errorf("dim: staging %v %v at rank %d made no progress: %w", rq.Item, rq.Mode, m.Rank(), err)
			}
		}
	}
}

// insertLocal installs a transferred copy of region (install) and, if
// the fragment grew, reports it.
func (m *Manager) insertLocal(id ItemID, region dataitem.Region, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemFits(id, region)
	if err != nil {
		return err
	}
	if grew, err := st.install(region, data); !grew {
		return err
	}
	return m.reportLocked(id, st, nil, -1)
}

// growLocal zero-allocates region, granted by a first-touch claim, in
// the local fragment (alloc) and reports it.
func (m *Manager) growLocal(id ItemID, region dataitem.Region) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(id)
	if err == nil {
		err = st.alloc(region)
	}
	if err != nil {
		return err
	}
	return m.reportLocked(id, st, nil, -1)
}
