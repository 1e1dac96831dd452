package dim

import (
	"errors"
	"fmt"
	"slices"

	"allscale/internal/dataitem"
	"allscale/internal/runtime"
	"allscale/internal/trace"
)

// Owner-tracked sharers (DESIGN.md §6f, coherence rule 3), the
// Manager's side: the chase of a write acquisition's evictions along the
// sharer records (rules.go holds the records and their rules).

// sharersOf returns the lent records intersecting r that the
// acquisition token does not hold pinned (left in place until evict has
// dealt with the copy each one names) and the part of r outside the
// root region.
func (m *Manager) sharersOf(token uint64, id ItemID, r dataitem.Region) (sharers []Located, unrooted dataitem.Region) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.items[id]
	if !ok {
		return nil, r
	}
	return m.notHeldLocked(token, id, st.sharers(r)), r.Difference(st.root)
}

// notHeldLocked clips the copies of item id listed in owners to what
// the acquisition token has not left pinned at their holders.
func (m *Manager) notHeldLocked(token uint64, id ItemID, owners []Located) []Located {
	held := m.held[token]
	if len(held) == 0 {
		return owners
	}
	var out []Located
	for _, o := range owners {
		for _, h := range held {
			if h.rank == o.Rank && h.item == id {
				o.Region = o.Region.Difference(h.region)
			}
		}
		if !o.Region.IsEmpty() {
			out = append(out, o)
		}
	}
	return out
}

// notHeld is notHeldLocked for callers outside the lock.
func (m *Manager) notHeld(token uint64, id ItemID, owners ...Located) []Located {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.notHeldLocked(token, id, owners)
}

// errContended reports a drop turned away by a lower rank that has
// write-locked its copy of the region.
var errContended = errors.New("a lower rank is acquiring the region for writing")

// evict drops the copy o names and then every copy made from it: each
// drop reply lists the evicted holder's own sharers of the region,
// which are chased in turn. The caller must hold a write lock (token's)
// on the region with the data locally present — that copy is what
// makes destroying the others safe, and the lock is what keeps a new
// copy from being made behind the chase (any still in flight is pinned
// at its source, whose drop waits for the pin and then reports it). A
// holder that keeps its copy stays on record, and the pin it took goes
// on the token. span is the acquisition's.
func (m *Manager) evict(token uint64, id ItemID, o Located, span trace.SpanID) error {
	work := []Located{o}
	for len(work) > 0 {
		o, work = work[len(work)-1], work[:len(work)-1]
		if o.Rank == m.Rank() {
			continue
		}
		// A copy this acquisition holds pinned since an earlier drop may
		// be listed again by a later one: dropping it twice would wait
		// for our own pin.
		rest := m.notHeld(token, id, o)
		if len(rest) == 0 {
			continue
		}
		o = rest[0]
		// Like a fetch, a drop may wait out a reader at the holder: it
		// rides the data-plane profile, not the bounded control-plane
		// one.
		var reply dropReply
		if err := m.loc.Call(o.Rank, methodDrop, &dropArgs{Item: id, Region: o.Region}, &reply, m.dataOpt(), runtime.WithParent(span)); err != nil {
			return fmt.Errorf("dim: evict replica of %v from rank %d: %w", id, o.Rank, err)
		}
		if reply.Contended {
			return fmt.Errorf("dim: evict replica of %v from rank %d: %w", id, o.Rank, errContended)
		}
		m.mu.Lock()
		if st, ok := m.items[id]; ok {
			if err := st.evicted(o, &reply); err != nil {
				m.mu.Unlock()
				return fmt.Errorf("dim: evict replica of %v from rank %d: %w", id, o.Rank, err)
			}
		}
		if reply.PinToken != 0 {
			m.held[token] = append(m.held[token], heldPin{rank: o.Rank, item: id, region: reply.Kept, token: reply.PinToken})
		}
		m.mu.Unlock()
		work = append(work, reply.Sharers...)
	}
	return nil
}

// ExclusivelyOwned reports whether the whole region is locally
// present and provably the item's only copy: inside the root region
// and lent to nobody.
func (m *Manager) ExclusivelyOwned(id ItemID, r dataitem.Region) bool {
	sharers, unrooted := m.sharersOf(0, id, r)
	return unrooted.IsEmpty() && len(sharers) == 0
}

// A shipped writer carries its origin's eviction (DESIGN.md §6f
// "Carried evictions", the claim rows): its origin serves the drop as it
// ships it (Carry), and at the destination the pin is the task's claim
// (TakeCarried) until its acquisition locks the region and Release
// refreshes it. Anything else that needs the region first (yieldLocked)
// and the task leaving without it (EndCarried) end it with a refresh; at
// the origin it turns away every evictor but the destination (drop); a
// ship given up settles it without a refresh (SettleCarried).

// refresh is a dim.unpin owed to the holder of a write-mode pin: its
// token, and the pinned part's content.
type refresh struct {
	rank  int
	token uint64
	data  []byte
}

// refreshLocked returns the refresh owed to h now: the pinned part as it
// is here. An acquisition that lost its data (a recovery reset) has
// nothing to send: the holder drops the part instead.
func (m *Manager) refreshLocked(h heldPin) refresh {
	r := refresh{rank: h.rank, token: h.token}
	if st, ok := m.items[h.item]; ok {
		r.data, _ = st.frag.Extract(h.region)
	}
	return r
}

// sendRefreshes sends each refresh in the dim.unpin that ends its pin —
// supervised, ack-only, and not waited for.
func (m *Manager) sendRefreshes(rs []refresh) {
	for _, r := range rs {
		m.refreshSent.Inc()
		m.refreshBytes.Add(uint64(len(r.data)))
		m.loc.CallAsync(r.rank, methodUnpin, &unpinArgs{Token: r.token, Data: r.data}, m.ctlOpt(), runtime.AckOnly())
	}
}

// takeHeldLocked ends every pin token holds, claims included, and
// appends their refreshes to out.
func (m *Manager) takeHeldLocked(token uint64, out []refresh) []refresh {
	for _, h := range m.held[token] {
		if h.carried {
			m.claims--
		}
		out = append(out, m.refreshLocked(h))
	}
	delete(m.held, token)
	return out
}

// yieldLocked ends the claims on r in item id of every task but token's,
// appending their refreshes to out: something else needs the region
// before those tasks have locked it.
func (m *Manager) yieldLocked(token uint64, id ItemID, r dataitem.Region, out []refresh) []refresh {
	if m.claims == 0 {
		return out
	}
	for tok, hs := range m.held {
		if tok == token {
			continue
		}
		rest := hs[:0]
		for _, h := range hs {
			if h.yields(id, r) {
				m.claims--
				out = append(out, m.refreshLocked(h))
				continue
			}
			rest = append(rest, h)
		}
		if len(rest) == 0 {
			delete(m.held, tok)
		} else {
			m.held[tok] = rest
		}
	}
	return out
}

// Carry serves, at the origin of a task shipped to rank `to`, the drop
// each of the task's write requirements would send here (carry), and
// returns what it kept, for the task's frame. A destination that has left
// gets nothing: nobody would end the pin.
func (m *Manager) Carry(to int, reqs []Requirement) []Carried {
	if !slices.ContainsFunc(reqs, func(rq Requirement) bool { return rq.Mode == Write }) {
		return nil
	}
	var out []Carried
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gone(to) != nil {
		return nil
	}
	for _, rq := range reqs {
		st, ok := m.items[rq.Item]
		if !ok || rq.Mode != Write {
			continue
		}
		token := m.pinTokenLocked()
		if kept := st.carry(to, m.Rank(), rq.Region, token); kept != nil {
			m.dropKept.Inc()
			m.dropCarried.Inc()
			out = append(out, Carried{Item: rq.Item, Kept: kept, Token: token})
		}
	}
	return out
}

// SettleCarried ends, at the origin, the pins of a ship to rank `to` that
// the RPC layer gave up, without a refresh (departed): the task may have
// run there before the verdict.
func (m *Manager) SettleCarried(to int, cs []Carried) {
	for _, c := range cs {
		_, _ = m.handleUnpin(to, &unpinArgs{Token: c.Token})
	}
}

// TakeCarried takes in, at the destination, the evictions the origin
// `from` carried for the n tasks of one frame, carried(i) giving task i's
// token and evictions. It refuses the frame, filing nothing, if one of
// them does not fit its item. Each is applied like a drop's reply
// (evicted), and its pin is filed as a claim of the task — unless the
// part is not here and readable, when the claim yields at once. An item
// this rank does not have is ignored.
func (m *Manager) TakeCarried(from, n int, carried func(i int) (token uint64, cs []Carried)) error {
	i := 0
	for ; i < n; i++ {
		if _, cs := carried(i); len(cs) > 0 {
			break
		}
	}
	if i == n {
		return nil
	}
	m.mu.Lock()
	for j := i; j < n; j++ {
		_, cs := carried(j)
		for _, c := range cs {
			if st, ok := m.items[c.Item]; ok && st.fits(c.Kept) != nil {
				m.mu.Unlock()
				return fmt.Errorf("dim: carried eviction of %v: %w", c.Item, st.fits(c.Kept))
			}
		}
	}
	var yields []refresh
	for ; i < n; i++ {
		token, cs := carried(i)
		for _, c := range cs {
			st, ok := m.items[c.Item]
			if !ok {
				continue
			}
			_ = st.evicted(Located{Region: c.Kept, Rank: from}, &dropReply{Root: st.typ.EmptyRegion(), Kept: c.Kept, PinToken: c.Token}) // it fits
			h := heldPin{rank: from, item: c.Item, region: c.Kept, token: c.Token, carried: true}
			if blocked, _ := st.blocked(0, Read, c.Kept); blocked || !st.present(c.Kept) {
				yields = append(yields, m.refreshLocked(h))
				continue
			}
			m.held[token] = append(m.held[token], h)
			m.claims++
		}
	}
	m.mu.Unlock()
	m.sendRefreshes(yields)
	return nil
}

// EndCarried ends the pins the task token brought along, each with a
// refresh of the current content: the task leaves without an acquisition
// that took them over (its acquisition failed, or it never made one).
func (m *Manager) EndCarried(token uint64) {
	m.mu.Lock()
	out := m.takeHeldLocked(token, nil)
	m.mu.Unlock()
	m.sendRefreshes(out)
}
