package dim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"allscale/internal/backoff"
	"allscale/internal/dataitem"
	"allscale/internal/runtime"
	"allscale/internal/trace"
	"allscale/internal/wire"
)

// Wire argument structures of the manager's services; wirecodec.go
// holds their binary forms.
type (
	createArgs struct {
		ID       ItemID
		TypeName string
	}
	destroyArgs struct {
		ID ItemID
	}
	reportArgs struct {
		Item   ItemID
		Level  int // the parent's level receiving the report
		Left   bool
		Region dataitem.Region
		Seq    uint64
	}
	// itemRegion names a region of one item: what a fetch, a drop and a
	// cache revocation (cinvArgs) ask about.
	itemRegion struct {
		Item   ItemID
		Region dataitem.Region
	}
	fetchArgs  = itemRegion
	dropArgs   = itemRegion
	fetchReply struct {
		Data []byte
		// Part is the region actually exported — the request clipped
		// to the source's coverage at execution time.
		Part  dataitem.Region
		Empty bool
		// PinToken names the temporary read lock the source holds on
		// Part until the caller confirms (dim.unpin) that the new copy
		// is registered in the index. Without it, a write acquisition
		// could miss the copy in flight and later be overwritten by its
		// stale data.
		PinToken uint64
	}
	unpinArgs struct {
		Token uint64
		// Data, when the token names a write-mode pin, is the writer's
		// final content of the pinned part, to be installed before the
		// pin goes; without it the part is stale and really dropped.
		Data []byte
	}
	claimArgs struct {
		Item   ItemID
		Region dataitem.Region
		// Alloc claims the part of Region allocated nowhere yet, Root
		// the part whose root copy exists nowhere yet; with both set
		// (first touch) the grant is the part that passes both.
		Alloc, Root bool
		Epoch       uint64 // the claimant's recovery epoch (handleClaim)
	}
	claimReply struct {
		Granted dataitem.Region
	}
	dropReply struct {
		// Sharers are the evicted holder's own lent records intersecting
		// the dropped region, for the evictor to chase.
		Sharers []Located
		// Root is the part of the dropped region the holder held the
		// root copy of: the evictor's copy is the root copy from now on.
		Root dataitem.Region
		// Contended turns the drop away, nothing dropped: the holder has
		// write-locked an overlapping region and outranks the evictor
		// (see handleDrop).
		Contended bool
		// Kept is the part of the dropped region the holder did not
		// remove: a replica read since it was installed stays in place,
		// write-locked under PinToken on the evictor's behalf until the
		// evictor's dim.unpin delivers its new content.
		Kept     dataitem.Region
		PinToken uint64
	}
	// batchReq is one resolution sub-request of a dim.resolveBatch
	// frame; All selects full-descent (Owners-style) resolution.
	batchReq struct {
		Item    ItemID
		Region  dataitem.Region
		Level   int
		Descend bool
		All     bool
	}
	batchArgs struct {
		Reqs []batchReq
	}
	batchReply struct {
		Replies [][]Located // one per request
	}
)

const (
	methodCreate  = "dim.create"
	methodDestroy = "dim.destroy"
	methodReport  = "dim.report"
	methodFetch   = "dim.fetch"
	methodClaim   = "dim.claim"
	methodDrop    = "dim.drop"
	methodUnpin   = "dim.unpin"
	// methodResolveBatch coalesces many resolution sub-requests into
	// one frame per target rank (DESIGN.md §6f).
	methodResolveBatch = "dim.resolveBatch"
)

func (m *Manager) registerServices() {
	m.loc.Handle(methodCreate, rpc(m.handleCreate))
	m.loc.Handle(methodDestroy, rpc(m.handleDestroy))
	m.loc.Handle(methodReport, rpc(m.handleReport))
	m.loc.Handle(methodFetch, rpc(m.handleFetch))
	m.loc.Handle(methodClaim, rpc(m.handleClaim))
	m.loc.Handle(methodDrop, rpc(m.handleDrop))
	m.loc.Handle(methodUnpin, rpc(m.handleUnpin))
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

// CreateItem introduces a new data item of the given registered type
// to all processes of the system and returns its global ID
// ((create) transition). No memory is allocated yet.
func (m *Manager) CreateItem(typ dataitem.Type) (ItemID, error) {
	if _, err := m.reg.Lookup(typ.Name()); err != nil {
		return 0, fmt.Errorf("dim: create of unregistered type: %w", err)
	}
	m.mu.Lock()
	m.seq++
	id := MakeItemID(m.Rank(), m.seq)
	m.mu.Unlock()
	args := &createArgs{ID: id, TypeName: typ.Name()}
	for rank := 0; rank < m.size(); rank++ {
		// Latent ranks are included — their catalogs stay in sync so a
		// later join finds every item registered — but dead and departed
		// ranks are gone for good.
		if m.loc.IsDead(rank) || m.loc.IsDeparted(rank) {
			continue
		}
		if err := m.loc.Call(rank, methodCreate, args, nil, m.ctlOpt()); err != nil {
			return 0, fmt.Errorf("dim: create at rank %d: %w", rank, err)
		}
	}
	return id, nil
}

func (m *Manager) handleCreate(_ int, args *createArgs) (*struct{}, error) {
	typ, err := m.reg.Lookup(args.TypeName)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.items[args.ID]; dup {
		return nil, fmt.Errorf("dim: item %v already exists", args.ID)
	}
	m.items[args.ID] = &itemState{
		typ:       typ,
		full:      typ.FullRegion(),
		frag:      typ.NewFragment(),
		index:     make(map[int]*sides),
		ver:       make(map[int]uint64),
		allocated: typ.EmptyRegion(),
		rooted:    typ.EmptyRegion(),
		root:      typ.EmptyRegion(),
		lent:      make(map[int]dataitem.Region),
		used:      typ.EmptyRegion(),
		unused:    typ.EmptyRegion(),
	}
	return &struct{}{}, nil
}

// DestroyItem removes the data item from all processes, releasing its
// fragments and locks ((destroy) transition).
func (m *Manager) DestroyItem(id ItemID) error {
	args := &destroyArgs{ID: id}
	for rank := 0; rank < m.size(); rank++ {
		if m.loc.IsDead(rank) || m.loc.IsDeparted(rank) {
			continue
		}
		if err := m.loc.Call(rank, methodDestroy, args, nil, m.ctlOpt()); err != nil {
			return fmt.Errorf("dim: destroy at rank %d: %w", rank, err)
		}
	}
	return nil
}

func (m *Manager) handleDestroy(_ int, args *destroyArgs) (*struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.items, args.ID)
	m.wakeLocked()
	return &struct{}{}, nil
}

func (m *Manager) itemLocked(id ItemID) (*itemState, error) {
	st, ok := m.items[id]
	if !ok {
		return nil, fmt.Errorf("dim: unknown item %v at rank %d", id, m.Rank())
	}
	return st, nil
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

// reportUp propagates the local fragment coverage into the index,
// stamped with a fresh leaf report version. The report of an item
// destroyed meanwhile ends wherever it meets the item gone: a republish
// racing a job's destroy must still get to the allocation sync.
func (m *Manager) reportUp(id ItemID) error {
	m.mu.Lock()
	st, ok := m.items[id]
	if !ok {
		m.mu.Unlock()
		return nil
	}
	total := st.frag.Region()
	st.ver[1]++
	seq := m.stampLocked(st.ver[1])
	m.mu.Unlock()
	return m.propagate(id, m.Rank(), 1, total, seq)
}

// propagate walks the hierarchy upward from the node at (host i,
// level l) whose total coverage changed to `total` under report
// version seq, updating parents until the root. Local hops stay
// in-process; the first remote hop hands the walk to the parent's
// host via dim.report. Stale reports (older seq than the side's last
// applied one) terminate the walk — a newer report has already
// propagated past this point.
func (m *Manager) propagate(id ItemID, i, l int, total dataitem.Region, seq uint64) error {
	root := rootLevel(m.size())
	for l < root {
		// The node identity is its subtree's lowest rank; the parent's
		// host is the left-most live rank of the parent's subtree, so
		// the walk routes around dead ranks (and degenerates to Fig. 5's
		// static assignment with zero deaths).
		plo := nodeLo(i, l+1)
		left := nodeLo(i, l) == plo
		p := m.liveHost(plo, l+1)
		if p != m.Rank() {
			return m.loc.Call(p, methodReport, &reportArgs{Item: id, Level: l + 1, Left: left, Region: total, Seq: seq}, nil, m.ctlOpt())
		}
		next, nextSeq, fresh, err := m.applyReport(id, l+1, left, total, seq)
		if err != nil {
			return err
		}
		if !fresh {
			return nil
		}
		i, l, total, seq = plo, l+1, next, nextSeq
	}
	return nil
}

// applyReport stores a child's coverage at the inner node at `level`
// hosted here (unless the report is stale), returning the node's new
// total coverage and this node's own report version for the next hop.
func (m *Manager) applyReport(id ItemID, level int, left bool, region dataitem.Region, seq uint64) (dataitem.Region, uint64, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.items[id]
	if !ok {
		return nil, 0, false, nil // destroyed (reportUp)
	}
	if err := st.fits(region); err != nil {
		return nil, 0, false, err
	}
	s := st.index[level]
	if s == nil {
		s = &sides{left: st.typ.EmptyRegion(), right: st.typ.EmptyRegion()}
		st.index[level] = s
	}
	if left {
		if seq <= s.leftSeq {
			return nil, 0, false, nil
		}
		// A side losing coverage invalidates this rank's locate cache:
		// a cached map may point at the shrunk subtree. Pure growth is
		// harmless (rule 1 in cache.go) and keeps the warm entries.
		if !s.left.Difference(region).IsEmpty() {
			m.invalidateLocatesLocked(st)
		}
		s.leftSeq = seq
		s.left = region
	} else {
		if seq <= s.rightSeq {
			return nil, 0, false, nil
		}
		if !s.right.Difference(region).IsEmpty() {
			m.invalidateLocatesLocked(st)
		}
		s.rightSeq = seq
		s.right = region
	}
	st.ver[level]++
	return s.left.Union(s.right), m.stampLocked(st.ver[level]), true, nil
}

func (m *Manager) handleReport(_ int, args *reportArgs) (*struct{}, error) {
	total, seq, fresh, err := m.applyReport(args.Item, args.Level, args.Left, args.Region, args.Seq)
	if err != nil {
		return nil, err
	}
	if fresh {
		if err := m.propagate(args.Item, m.Rank(), args.Level, total, seq); err != nil {
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
	out, err := m.resolve(id, r, 1, false)
	if err == nil {
		m.cachePut(id, r, false, out, gen)
	}
	sp.SetErr(err)
	sp.End()
	return out, err
}

// resolve implements RESOLVE(d, r, l) on top of the batched engine.
// descend suppresses parent escalation for calls walking down into
// subtrees, guaranteeing termination.
func (m *Manager) resolve(id ItemID, r dataitem.Region, l int, descend bool) ([]Located, error) {
	res, err := m.resolveMulti([]batchReq{{Item: id, Region: r, Level: l, Descend: descend}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// resolveMulti is the batched resolution engine behind resolve and
// rootWalk: each request is processed against the
// locally hosted index nodes exactly as Algorithm 1 prescribes (leaf
// intersection, child-side consultation with remaining-region
// subtraction, parent escalation), but instead of issuing one RPC per
// request per hierarchy level, every remote sub-request a local pass
// produces — right children at any level, parent escalations — is
// coalesced into a single dim.resolveBatch frame per target rank.
// The remote side recurses with the same batching, so a full walk
// costs O(log P) frames regardless of the requirement count.
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
		if l == 1 {
			// Leaf level: add the local share to the result.
			m.mu.Lock()
			st, err := m.itemLocked(rq.Item)
			if err != nil {
				m.mu.Unlock()
				return err
			}
			cov := st.frag.Region()
			m.mu.Unlock()
			ri := r.Intersect(cov)
			if !ri.IsEmpty() {
				out[idx] = append(out[idx], Located{Region: ri, Rank: m.Rank()})
				r = r.Difference(ri)
			}
		} else {
			// Inner level: consult the children.
			m.mu.Lock()
			st, err := m.itemLocked(rq.Item)
			if err != nil {
				m.mu.Unlock()
				return err
			}
			var lr, rr dataitem.Region = st.typ.EmptyRegion(), st.typ.EmptyRegion()
			if s := st.index[l]; s != nil {
				lr, rr = s.left, s.right
			}
			m.mu.Unlock()

			lo := nodeLo(m.Rank(), l)
			half := 1 << uint(l-2)
			if sub := r.Intersect(lr); !sub.IsEmpty() {
				// The host of an inner node is the left-most live rank of
				// its subtree, so a live left child is always hosted here;
				// a fully-dead left child (until its coverage is retracted)
				// has no reachable data and stays unresolved.
				if m.liveHost(lo, l-1) == m.Rank() {
					if err := process(idx, batchReq{Item: rq.Item, Region: sub, Level: l - 1, Descend: true, All: rq.All}); err != nil {
						return err
					}
					if !rq.All {
						r = r.Difference(lr)
					}
				}
			}
			if rc := m.liveHost(lo+half, l-1); rc >= 0 && (rq.All || !r.IsEmpty()) {
				if sub := r.Intersect(rr); !sub.IsEmpty() {
					child := batchReq{Item: rq.Item, Region: sub, Level: l - 1, Descend: true, All: rq.All}
					if rc == m.Rank() {
						// The whole left subtree is dead and this rank took
						// over the right child too: descend locally.
						if err := process(idx, child); err != nil {
							return err
						}
					} else {
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

func (m *Manager) handleResolveBatch(_ int, args *batchArgs) (*batchReply, error) {
	if err := m.fitsAll(args.Reqs); err != nil {
		return nil, err
	}
	res, err := m.resolveMulti(args.Reqs)
	if err != nil {
		return nil, err
	}
	return &batchReply{Replies: res}, nil
}

// fitsAll checks the regions of a peer's resolution requests against
// their items; a nil one asks for nothing (resolveMulti skips it).
func (m *Manager) fitsAll(reqs []batchReq) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rq := range reqs {
		if rq.Region == nil {
			continue
		}
		st, err := m.itemLocked(rq.Item)
		if err != nil {
			return err
		}
		if err := st.fits(rq.Region); err != nil {
			return err
		}
	}
	return nil
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

// handleFetch exports a copy of the requested region of the local
// fragment ((replicate) rule: it waits while a write lock overlaps the
// region — a task's, or the write-mode pin of a kept replica whose new
// content has not arrived). The importer goes on record as a sharer of
// what it is sent (rule 3 in cache.go), and the exported part stays
// pinned — read-locked on the importer's behalf — until the importer
// confirms that its copy is in place: whoever evicts this copy meanwhile
// waits for that, and then learns of the new one.
func (m *Manager) handleFetch(from int, args *fetchArgs) (*fetchReply, error) {
	w := waiter{abort: func() error { return m.gone(from) }}
	defer w.done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		st, err := m.itemLocked(args.Item)
		if err != nil {
			return nil, err
		}
		if err := st.fits(args.Region); err != nil {
			return nil, err
		}
		if !st.writeLocked(args.Region) {
			part := args.Region.Intersect(st.frag.Region())
			if part.IsEmpty() {
				return &fetchReply{Empty: true}, nil
			}
			// A request may be served after its sender was declared dead
			// and its pins were released (ReleasePinsOf runs once, after
			// the mark): a pin taken now would never be confirmed and
			// would block writers for good.
			if err := m.gone(from); err != nil {
				return nil, fmt.Errorf("dim: fetch of %v: %w", args.Item, err)
			}
			data, err := st.frag.Extract(part)
			if err != nil {
				return nil, err
			}
			st.lend(from, part)
			token := m.pinLocked(st, pin{rank: from, item: args.Item}, part)
			return &fetchReply{Data: data, Part: part, PinToken: token}, nil
		}
		if err := m.park(&w, false); err != nil {
			return nil, fmt.Errorf("dim: fetch of %v blocked on locks: %w", args.Item, err)
		}
	}
}

// pinLocked locks part on behalf of p.rank, outside any acquisition,
// and returns the token the peer releases it by.
func (m *Manager) pinLocked(st *itemState, p pin, part dataitem.Region) uint64 {
	m.pinSeq++
	token := 1<<63 | uint64(m.Rank())<<48 | m.pinSeq
	mode := Read
	if p.write {
		mode = Write
	}
	st.locks = append(st.locks, lockEntry{token: token, mode: mode, region: part})
	m.pins[token] = p
	return token
}

// handleDrop ends the local copy of a region on behalf of a writer that
// holds its own copy under a write lock, and hands back the sharer
// records of the region. It waits until no lock overlaps the region: a
// locked replica must stay in place (satisfied requirements), and a
// pinned one has a copy in flight whose record the reply must carry. A
// holder that has nothing of the region (a stale sharer record) answers
// at once.
//
// What happens to the copy depends on what it is. The root copy, and a
// replica no task here was granted since it was installed, are removed
// — the only way a rank loses data. A replica that was read stays:
// same storage, same coverage, but write-locked from now on by a pin
// held for the evictor, whose release sends the new content
// (handleUnpin). Nothing can observe the kept bytes in between, so to
// every other party the copy is gone until it is made again — without
// the index reports, the cache revocations and the re-fetch.
//
// A write lock on the region means the evictor and a task here both
// hold a copy and have both locked it — staging does not wait for other
// copies to go. One of the two has to give way, and the lower rank goes
// first: a higher-ranked evictor is turned away (Contended), releases
// its locks and starts over; a lower-ranked one waits here like behind
// any lock, because the local writer's own eviction of that rank's copy
// is turned away there. The lowest rank among any set of contenders
// yields to nobody, so one of them always completes. A write-mode pin
// is the write lock of the rank it is held for: the evictor waits for
// its own (the refresh of its previous acquisition is still on its way)
// and for a higher rank's, and gives way to a lower rank's. An evictor
// that has left while its drop waits is owed nothing (gone).
func (m *Manager) handleDrop(from int, args *dropArgs) (*dropReply, error) {
	w := waiter{abort: func() error { return m.gone(from) }}
	defer w.done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		st, err := m.itemLocked(args.Item)
		if err != nil {
			return nil, err
		}
		if err := st.fits(args.Region); err != nil {
			return nil, err
		}
		part := args.Region.Intersect(st.frag.Region())
		if part.IsEmpty() {
			return st.release(args.Region, from), nil
		}
		busy := false
		for _, e := range st.locks {
			if e.region.Intersect(args.Region).IsEmpty() {
				continue
			}
			busy = true
			if e.mode == Write && from > m.writerOfLocked(e) {
				return &dropReply{Contended: true}, nil
			}
		}
		if !busy {
			return m.dropLocked(args.Item, st, args.Region, part, from)
		}
		if err := m.park(&w, false); err != nil {
			return nil, fmt.Errorf("dim: drop of %v blocked on locks: %w", args.Item, err)
		}
	}
}

// writerOfLocked returns the rank whose write acquisition the
// write-mode lock e stands for: this one, or the peer a pin is held for.
func (m *Manager) writerOfLocked(e lockEntry) int {
	if p, ok := m.pins[e.token]; ok {
		return p.rank
	}
	return m.Rank()
}

// dropLocked serves a drop of region, of which part is present and
// unlocked: records and root role go to the evictor, the used replica
// part is kept under a write-mode pin, the rest is removed.
func (m *Manager) dropLocked(id ItemID, st *itemState, region, part dataitem.Region, from int) (*dropReply, error) {
	reply := st.release(region, from)
	// The records handed over name every copy made from this one but the
	// evictor's own, and this rank may be the root holder's only link to
	// that: leave a record of the evictor beside (or in place of) the
	// evicted copy.
	st.lend(from, part)
	keep := part.Intersect(st.used).Difference(reply.Root)
	if !keep.IsEmpty() {
		reply.Kept = keep
		reply.PinToken = m.pinLocked(st, pin{rank: from, item: id, write: true}, keep)
		m.dropKept.Inc()
	}
	if gone := part.Difference(keep); !gone.IsEmpty() {
		m.dropEvicted.Inc()
		if err := m.shrinkLocked(id, st, gone, from); err != nil {
			// The evictor will not learn of the pin: the kept part goes on
			// as the replica it was.
			m.unlockLocked(reply.PinToken)
			return nil, err
		}
	}
	return reply, nil
}

// shrinkLocked removes part from the local fragment and makes the loss
// known before returning: the new coverage is propagated up the index
// and peer caches naming this rank for part are revoked (rule 2 in
// cache.go) — both outside the lock, which is held on entry and on
// return. The rank that asked for the removal is skipped: it holds the
// region itself, so an entry of its own that still names this rank
// cannot misdirect a fetch, and it drops all its entries when its own
// coverage next changes.
func (m *Manager) shrinkLocked(id ItemID, st *itemState, part dataitem.Region, asker int) error {
	if err := st.forget(part); err != nil {
		return err
	}
	total := st.frag.Region()
	st.ver[1]++
	seq := m.stampLocked(st.ver[1])
	m.invalidateLocatesLocked(st)
	m.mu.Unlock()
	err := m.propagate(id, m.Rank(), 1, total, seq)
	if err == nil {
		m.revokeLocates(id, part, asker)
	}
	m.mu.Lock()
	m.wakeLocked()
	return err
}

// handleUnpin releases a pin. For a read-mode pin that is all: the
// importer's copy is registered. A write-mode pin goes with the
// writer's final content of the kept part, installed first — or, when
// the writer had none to send, with the part itself, which is stale.
// The token is the gate: a refresh whose pin is gone (released by
// recovery, or a resend that outlived the dedup window) installs
// nothing, and successive writes need no version because each one's
// drop waits for the previous one's pin.
func (m *Manager) handleUnpin(_ int, args *unpinArgs) (*struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pins[args.Token]
	switch {
	case !ok:
		if len(args.Data) > 0 {
			m.refreshStale.Inc()
		}
	case p.write:
		m.settleLocked(args.Token, p, args.Data, true)
	default:
		m.unlockLocked(args.Token)
	}
	return &struct{}{}, nil
}

// settleLocked ends the write-mode pin token: data, the writer's final
// content of the pinned part, is installed under it; with none the part
// is removed (and the loss reported, if report is set) before the lock
// goes, so whoever waits behind it re-stages instead of reading stale
// bytes.
func (m *Manager) settleLocked(token uint64, p pin, data []byte, report bool) {
	st, ok := m.items[p.item]
	if !ok {
		delete(m.pins, token)
		return
	}
	var part dataitem.Region = st.typ.EmptyRegion()
	for _, e := range st.locks {
		if e.token == token {
			part = part.Union(e.region)
		}
	}
	if len(data) > 0 {
		if fresh, err := st.frag.Insert(data); err == nil {
			st.installed(fresh)
			part = part.Difference(fresh)
		}
	}
	if !part.IsEmpty() {
		// Best effort: a report that fails leaves an index entry a fetch
		// answers Empty to, which corrects itself (rule 2 in cache.go).
		if report {
			_ = m.shrinkLocked(p.item, st, part, p.rank)
		} else {
			_ = st.forget(part)
		}
	}
	m.unlockLocked(token)
}

// handleClaim serializes, at the index root host, the two decisions
// that need a system-wide view: which part of a region is allocated
// nowhere yet ((init) rule — the claimant must then allocate it), and
// which part has no root copy anywhere yet (the claimant's copy then
// becomes it). The grant is the part of the request that passes every
// test asked for.
//
// A reindex retracts rank by rank, forgetting the root role here
// (rooted) and at the claimant (root). A claim across a retraction gets
// nothing — one side would forget the grant, leaving a role nobody or
// two hold — and the claimant, which also drops a grant a retraction
// overtook (claim), asks again.
func (m *Manager) handleClaim(_ int, args *claimArgs) (*claimReply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(args.Item)
	if err != nil {
		return nil, err
	}
	if err := st.fits(args.Region); err != nil {
		return nil, err
	}
	if args.Epoch != m.epoch {
		return &claimReply{Granted: st.typ.EmptyRegion()}, nil
	}
	granted := args.Region
	if args.Alloc {
		granted = granted.Difference(st.allocated)
		st.allocated = st.allocated.Union(args.Region)
	}
	if args.Root {
		granted = granted.Difference(st.rooted)
		st.rooted = st.rooted.Union(granted)
	}
	return &claimReply{Granted: granted}, nil
}

// claim asks the root host which part of r this process may allocate
// (alloc) and hold the root copy of (root), and takes up the root role
// of the grant — unless a retraction overtook it (handleClaim).
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
	if m.epoch != epoch {
		return st.typ.EmptyRegion(), nil
	}
	st.root = st.root.Union(reply.Granted)
	return reply.Granted, nil
}

// ---------------------------------------------------------------
// Locks
// ---------------------------------------------------------------

// writeLocked reports whether a write lock — a task's or a write-mode
// pin — overlaps region (replication waits for those only; a drop
// waits for every lock, see handleDrop).
func (st *itemState) writeLocked(region dataitem.Region) bool {
	for _, e := range st.locks {
		if e.mode == Write && !e.region.Intersect(region).IsEmpty() {
			return true
		}
	}
	return false
}

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
	if m.loc.IsDead(rank) || m.loc.IsDeparted(rank) {
		return fmt.Errorf("dim: rank %d has left", rank)
	}
	return nil
}

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
// Scheduling discipline: the task scheduler should avoid placing
// tasks with overlapping write requirements on different processes
// concurrently (Algorithm 2 routes by write requirement); such tasks
// are still executed correctly, but keep stealing the overlap from
// each other while racing for the lock — and when both hold a copy
// and both have locked it, the higher rank gives way and starts over
// (see handleDrop).
func (m *Manager) Acquire(token uint64, reqs []Requirement) error {
	return m.AcquireFor(token, reqs, 0, nil)
}

// AcquireFor is Acquire with an explicit parent span (the acquiring
// task's exec span), emitting a dim.acquire span and feeding the
// acquire-wait histogram with the stage-to-grant latency. abort, if
// not nil, ends the acquisition's lock waits with its error once the
// task no longer needs the data (see waiter).
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
	sorted := append([]Requirement(nil), reqs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Item < sorted[j].Item })
	for {
		for _, rq := range sorted {
			if err := m.ensureLocal(rq, w, span); err != nil {
				return err
			}
		}
		ok, err := m.tryLockAll(token, sorted, w)
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

// tryLockAll takes all locks atomically. It waits while conflicting
// locks exist; once conflict-free it verifies that the staged data is
// still locally present — if a concurrent migration stole it, it
// returns false so the caller re-stages.
func (m *Manager) tryLockAll(token uint64, reqs []Requirement, w *waiter) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var behindPin time.Time // when a kept replica's pin was first in the way
	for {
		conflict := false
		for _, rq := range reqs {
			st, err := m.itemLocked(rq.Item)
			if err != nil {
				return false, err
			}
			for _, e := range st.locks {
				if e.token == token {
					continue
				}
				if (e.mode == Write || rq.Mode == Write) && !e.region.Intersect(rq.Region).IsEmpty() {
					conflict = true
					if p, ok := m.pins[e.token]; ok && p.write && behindPin.IsZero() {
						behindPin = time.Now()
					}
					break
				}
			}
			if conflict {
				break
			}
		}
		if conflict {
			if err := m.park(w, false); err != nil {
				return false, fmt.Errorf("dim: acquire at rank %d: %w", m.Rank(), err)
			}
			continue
		}
		if !behindPin.IsZero() {
			m.refreshWait.Observe(time.Since(behindPin))
		}
		// Conflict-free: is the staged coverage still here?
		for _, rq := range reqs {
			st, _ := m.itemLocked(rq.Item)
			if !rq.Region.Difference(st.frag.Region()).IsEmpty() {
				return false, nil
			}
		}
		for _, rq := range reqs {
			st, _ := m.itemLocked(rq.Item)
			st.locks = append(st.locks, lockEntry{token: token, mode: rq.Mode, region: rq.Region})
			st.granted(rq.Region)
		}
		return true, nil
	}
}

// enforceExclusive restores single-copy ownership of all write
// regions after the locks are taken: it is done with a region once the
// local copy is the root copy and every sharer record inside it names a
// copy this acquisition holds pinned (m.held[token]) — storage its
// holder cannot read until Release has refreshed it, not a copy.
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
// write after a recovery reset), and otherwise looks again.
//
// Holders of replicas either finished staging (they run and release —
// a bounded wait), have locked their copy for writing too (the higher
// rank gives way, see handleDrop) or are still inserting a copy whose
// source keeps it pinned (the drop at the source waits for the pin, and
// its reply names the new holder), so no wait cycle can form and no
// in-flight copy is missed.
//
// Evicting moves no data: the local copy is current. Elements change
// only under a completed write acquisition, which leaves no other
// readable copy behind — every copy is made by handleFetch, hence on
// record at its source and pinned there until it is in place — and a
// copy ends only by handleDrop, sent by a rank that holds the same
// elements under a write lock. So no copy survives a write to it
// elsewhere with its old content: it is removed, or unreadable until it
// has the new one.
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

// Release drops all locks held by token. The replicas a write
// acquisition left pinned at their holders are owed its result: their
// parts are extracted while the write lock still stands and sent with
// the dim.unpin that releases each pin — supervised, ack-only, and not
// waited for: the pin keeps every reader of the stale bytes out until
// the refresh has arrived.
func (m *Manager) Release(token uint64) {
	m.mu.Lock()
	held := m.held[token]
	delete(m.held, token)
	refresh := make([][]byte, len(held))
	for i, h := range held {
		if st, ok := m.items[h.item]; ok {
			// An acquisition that lost its data (a recovery reset) has
			// nothing to send: the holder drops the part instead.
			refresh[i], _ = st.frag.Extract(h.region)
		}
	}
	m.unlockLocked(token)
	m.mu.Unlock()
	for i, h := range held {
		m.refreshSent.Inc()
		m.refreshBytes.Add(uint64(len(refresh[i])))
		m.loc.CallAsync(h.rank, methodUnpin, &unpinArgs{Token: h.token, Data: refresh[i]}, m.ctlOpt(), runtime.AckOnly())
	}
}

// unlockLocked removes the lock entries of token — an acquisition's or
// a pin's — and wakes the waiters.
func (m *Manager) unlockLocked(token uint64) {
	delete(m.pins, token)
	for _, st := range m.items {
		kept := st.locks[:0]
		for _, e := range st.locks {
			if e.token != token {
				kept = append(kept, e)
			}
		}
		st.locks = kept
	}
	m.wakeLocked()
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
		if _, pin := m.pins[e.token]; pin {
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

// Pins returns how many pins — of either mode, plus refreshes this
// rank's acquisitions still owe — are outstanding: zero at quiescence
// (for tests and monitoring).
func (m *Manager) Pins() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pins) + len(m.held)
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
		// Copy the missing data from its holders.
		for _, o := range owners {
			unresolved = unresolved.Difference(o.Region)
			want := o.Region.Intersect(missing)
			if o.Rank == m.Rank() || want.IsEmpty() {
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
			// the source may send or point here — but the call is
			// supervised, so a lost frame is resent.
			m.loc.CallAsync(o.Rank, methodUnpin, &unpinArgs{Token: reply.PinToken}, m.ctlOpt(), runtime.WithParent(span), runtime.AckOnly())
			if insErr != nil {
				return insErr
			}
			missing = missing.Difference(reply.Part)
			progressed = true
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

// insertLocal installs a transferred copy of region: the local fragment
// grows by the part of it that is missing and takes that part of data —
// a replica, unused so far. What the fragment already covers is left
// alone: another staging of this rank fetched the same elements first,
// and a task granted since may be reading them (only a refresh, under
// its write-mode pin, overwrites covered elements).
func (m *Manager) insertLocal(id ItemID, region dataitem.Region, data []byte) error {
	m.mu.Lock()
	st, err := m.itemLocked(id)
	if err == nil {
		err = st.fits(region)
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	cov := st.frag.Region()
	missing := region.Difference(cov)
	if missing.IsEmpty() {
		m.mu.Unlock()
		return nil
	}
	if !region.Intersect(cov).IsEmpty() {
		if data, err = clipPayload(st.typ, region, data, missing); err != nil {
			m.mu.Unlock()
			return err
		}
	}
	if err := st.frag.Resize(cov.Union(missing)); err != nil {
		m.mu.Unlock()
		return err
	}
	if _, err := st.frag.Insert(data); err != nil {
		m.mu.Unlock()
		return err
	}
	st.installed(missing)
	// Local coverage changed: cached maps for this item are out of
	// date here (they may undercount the new local copy).
	m.invalidateLocatesLocked(st)
	m.mu.Unlock()
	return m.reportUp(id)
}

// clipPayload cuts data, an extract of region, down to part, by way of
// a scratch fragment.
func clipPayload(typ dataitem.Type, region dataitem.Region, data []byte, part dataitem.Region) ([]byte, error) {
	scratch := typ.NewFragment()
	if err := scratch.Resize(region); err != nil {
		return nil, err
	}
	if _, err := scratch.Insert(data); err != nil {
		return nil, err
	}
	return scratch.Extract(part)
}

// growLocal zero-allocates region in the local fragment. The region
// was granted by a first-touch claim, so it is this item's only copy
// and, by the same grant, its root copy (claim).
func (m *Manager) growLocal(id ItemID, region dataitem.Region) error {
	m.mu.Lock()
	st, err := m.itemLocked(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if err := st.frag.Resize(st.frag.Region().Union(region)); err != nil {
		m.mu.Unlock()
		return err
	}
	m.invalidateLocatesLocked(st)
	m.mu.Unlock()
	return m.reportUp(id)
}
