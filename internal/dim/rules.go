package dim

import (
	"errors"
	"slices"
	"sort"

	"allscale/internal/dataitem"
)

// The transition core (DESIGN.md §6f "Owner-tracked sharers"): every
// per-item rule of the data item manager is a method of itemState that
// takes a request and returns its decision — a grant, a refusal, errWait,
// or what a peer must be sent. None of them sends, waits, locks the
// manager or counts: the Manager around them does, and a property test
// drives them alone (rules_test.go).

// lockEntry records one granted requirement, or one pin.
type lockEntry struct {
	token  uint64
	mode   Mode
	region dataitem.Region
	// pin is the rank a pin is held for — a lock outside any local
	// acquisition: in read mode on a part exported to the peer, until it
	// confirms that its copy is in place; in write mode on a replica kept
	// for the peer's write, until its refresh arrives — or noPin.
	pin int
	// carried marks a write-mode pin taken as this rank shipped the pin's
	// writer its task (carry): until that task has locked the region, the
	// pin stands for no lock, so it turns away every evictor but its
	// writer (drop).
	carried bool
	// back is where a carried pin stands that this rank took as a local
	// reader let go of the part (giveBack). Such a pin turns evictors away
	// as its writer's write lock does, not as a shipped task's (drop).
	back backState
}

// backState is where a part given back (giveBack) stands at its holder.
type backState uint8

const (
	notBack   backState = iota // a pin of any other kind
	backGoing                  // its notice is not on its way yet
	// backGiven: its notice is on its way (give), and its writer holds it
	// as a standing claim; the first wait here behind it asks it back
	// (reclaims).
	backGiven
	backAsked // asked back: a wait here waits for its refresh
)

// noPin is lockEntry.pin of a local task's lock.
const noPin = -1

// sides holds the child coverage an inner index node maintains, by side
// (0 left, 1 right). Reports carry per-reporter version numbers so that
// out-of-order delivery (handlers run concurrently) cannot regress a side
// to a stale coverage.
type sides struct {
	cov [2]dataitem.Region
	seq [2]uint64
}

// itemState is the per-item bookkeeping of one manager.
type itemState struct {
	typ dataitem.Type
	// full is elems(d), what a region from a peer's frame has to fit
	// (fits) before it meets the item's own.
	full  dataitem.Region
	frag  dataitem.Fragment
	locks []lockEntry
	// held is the writer's side of the write-mode pins other ranks hold
	// for the acquisitions and tasks here (heldPin).
	held []heldPin
	// index maps level -> child coverages, for the levels at which
	// this rank hosts an inner node (level >= 2).
	index map[int]*sides
	// ver numbers the coverage reports this rank emits per hierarchy
	// level (level 1 = the leaf fragment), making reports monotonic.
	ver map[int]uint64
	// allocated is maintained only at the index root host: the union
	// of all element regions ever allocated, serializing first-touch
	// allocation claims.
	allocated dataitem.Region
	// rooted, likewise kept at the index root host only, is the region
	// whose root copy exists somewhere: granted with first-touch claims
	// and with the root claims of writers that found none.
	rooted dataitem.Region
	// lcache holds this rank's locate-cache entries for the item;
	// cgen guards in-flight cache fills against invalidations racing
	// the walk (see cache.go). Guarded by Manager.mu.
	lcache []lcEntry
	cgen   uint64
	// root is the part of the local fragment that is the item's root
	// copy: this rank is the directory of every other copy of it — each
	// descends from here through lent records, so a write inside root
	// revokes them without an index walk (rule 3 in cache.go). An element
	// has one root copy at most: the role is created by a first-touch
	// claim (or, after a recovery reset, by a root claim) and travels to
	// whoever evicts the copy.
	root dataitem.Region
	// lent maps a peer rank to the region copied out to it, recorded at
	// export time — for root data and for replicas alike, so replicas
	// of replicas stay reachable. Records leave with the data: whoever
	// evicts a region from this fragment is handed the intersecting
	// records (Sharers), answers for those copies until it has evicted
	// them, and is itself left on record here in their place. A record
	// may outlive the peer's copy (a third rank evicted it); revoking it
	// then costs one empty drop.
	lent map[int]dataitem.Region
	// used is the part of the local fragment that was installed as a
	// replica (a fetch, or a writer's refresh) and granted to a local
	// task since; unused is the part installed and not granted since.
	// A drop keeps the used part in place for the writer to refresh and
	// really drops the rest. A grant touches them only while unused is
	// non-empty, so the steady read path pays one IsEmpty.
	used, unused dataitem.Region
	// refreshed maps a writer rank to the part of the fragment its
	// refreshes installed and nothing has replaced since: what a local
	// reader gives back to it as it lets go (giveBack) — but reread, the
	// parts once asked back: read more than once between two writes.
	refreshed []Located
	reread    dataitem.Region
}

// newItemState returns the state of an item of type typ that nothing has
// touched yet.
func newItemState(typ dataitem.Type) *itemState {
	empty := typ.EmptyRegion()
	return &itemState{
		typ:       typ,
		full:      typ.FullRegion(),
		frag:      typ.NewFragment(),
		index:     make(map[int]*sides),
		ver:       make(map[int]uint64),
		allocated: empty,
		rooted:    empty,
		root:      empty,
		lent:      make(map[int]dataitem.Region),
		used:      empty,
		unused:    empty,
		reread:    empty,
	}
}

// errWait is a rule's "not yet": a lock is in the way, and the caller
// asks again after the next wake.
var errWait = errors.New("dim: a lock is in the way")

// fits checks a region decoded from a peer's frame against the item
// (dataitem.Fits): the algebra panics on one of another scheme,
// dimensionality or tree height, and a handler answers with the error.
func (st *itemState) fits(r dataitem.Region) error { return dataitem.Fits(r, st.full) }

// fitsLocated checks the regions of a peer's resolution entries or
// sharer records.
func (st *itemState) fitsLocated(entries []Located) error {
	for _, e := range entries {
		if err := st.fits(e.Region); err != nil {
			return err
		}
	}
	return nil
}

// lend records that peer holds a copy of r: made from this fragment,
// made from the fragment of a holder this rank evicted, or the copy
// that evicted this one.
func (st *itemState) lend(peer int, r dataitem.Region) {
	if cur, ok := st.lent[peer]; ok {
		r = cur.Union(r)
	}
	st.lent[peer] = r
}

// sharers returns the lent records intersecting r, clipped to r, in
// rank order.
func (st *itemState) sharers(r dataitem.Region) []Located {
	var out []Located
	for peer, lr := range st.lent {
		if part := lr.Intersect(r); !part.IsEmpty() {
			out = append(out, Located{Region: part, Rank: peer})
		}
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	}
	return out
}

// unlend deletes the record of r copied to peer.
func (st *itemState) unlend(peer int, r dataitem.Region) {
	if cur, ok := st.lent[peer]; ok {
		if rest := cur.Difference(r); rest.IsEmpty() {
			delete(st.lent, peer)
		} else {
			st.lent[peer] = rest
		}
	}
}

// release ends this rank's part in region r, which `to` is evicting:
// the root role and the lent records inside r go to it, and a record of
// `to` stays in their place — the copies they name are its to answer
// for now, and this rank may be the root holder's only link to them. A
// record of `to` itself stays too, for the same reason: `to` knows its
// copy, but the root holder may reach it only through here.
func (st *itemState) release(r dataitem.Region, to int) *dropReply {
	reply := &dropReply{Root: st.root.Intersect(r)}
	st.root = st.root.Difference(r)
	for _, o := range st.sharers(r) {
		if o.Rank != to {
			st.unlend(o.Rank, o.Region)
			reply.Sharers = append(reply.Sharers, o)
		}
	}
	for _, o := range reply.Sharers {
		st.lend(to, o.Region)
	}
	return reply
}

// resetDirectory gives up the root region and every sharer record —
// and, at the index root host, the account of where root copies exist:
// the next write acquisition of any region walks the index and claims
// the root role anew. What is a replica is forgotten with it: until it
// is fetched anew, every part of the fragment is dropped for real.
func (st *itemState) resetDirectory() {
	st.root = st.typ.EmptyRegion()
	st.rooted = st.typ.EmptyRegion()
	st.used = st.typ.EmptyRegion()
	st.unused = st.typ.EmptyRegion()
	st.refreshed = nil
	st.reread = st.typ.EmptyRegion()
	clear(st.lent)
}

// installed notes that r was just written into the fragment from
// another rank's copy: a replica no task here has seen yet.
func (st *itemState) installed(r dataitem.Region) {
	st.used = st.used.Difference(r)
	st.unused = st.unused.Union(r)
}

// granted notes that r was locked for a local task. Only the first
// grant after an install does any region algebra.
func (st *itemState) granted(r dataitem.Region) {
	if st.unused.IsEmpty() {
		return
	}
	if hit := st.unused.Intersect(r); !hit.IsEmpty() {
		st.unused = st.unused.Difference(hit)
		st.used = st.used.Union(hit)
	}
}

// forget removes r from the fragment.
func (st *itemState) forget(r dataitem.Region) error {
	if err := st.frag.Resize(st.frag.Region().Difference(r)); err != nil {
		return err
	}
	st.used = st.used.Difference(r)
	st.unused = st.unused.Difference(r)
	st.refreshedBy(noPin, r)
	return nil
}

// refreshedBy notes that r was installed by writer's refresh or, with
// noPin, that it is gone or came another way.
func (st *itemState) refreshedBy(writer int, r dataitem.Region) {
	if len(st.refreshed) == 0 && writer == noPin {
		return
	}
	rest, found := st.refreshed[:0], false
	for _, f := range st.refreshed {
		if f.Rank == writer {
			f.Region, found = f.Region.Union(r), true
		} else if !f.Region.Intersect(r).IsEmpty() {
			f.Region = f.Region.Difference(r)
		}
		if !f.Region.IsEmpty() {
			rest = append(rest, f)
		}
	}
	if !found && writer != noPin {
		rest = append(rest, Located{Region: r, Rank: writer})
	}
	st.refreshed = rest
}

// report stores a child's coverage on its side of the inner node at
// level (Fig. 5), unless a newer report of that side came first (fresh
// false). It returns the node's coverage and report version for the next
// hop, and whether the side lost coverage: a cached locate may point at
// the shrunk subtree, while pure growth is harmless (rule 1 in cache.go).
func (st *itemState) report(level int, left bool, r dataitem.Region, seq uint64) (total dataitem.Region, ver uint64, fresh, shrunk bool) {
	s := st.index[level]
	if s == nil {
		s = &sides{cov: [2]dataitem.Region{st.typ.EmptyRegion(), st.typ.EmptyRegion()}}
		st.index[level] = s
	}
	i := 1
	if left {
		i = 0
	}
	if seq <= s.seq[i] {
		return nil, 0, false, false
	}
	shrunk = !s.cov[i].Difference(r).IsEmpty()
	s.cov[i], s.seq[i] = r, seq
	st.ver[level]++
	return s.cov[0].Union(s.cov[1]), st.ver[level], true, shrunk
}

// replicate is the (replicate) rule at the source: the part of r present
// here is exported to peer, unless a write lock overlaps r (errWait) — a
// task's, or the pin of a kept replica awaiting its refresh. The importer
// goes on record as a sharer (lend), and the part stays read-pinned under
// token until the importer confirms that its copy is in place: whoever
// evicts this copy meanwhile waits for that, and then learns of the new
// one.
func (st *itemState) replicate(peer int, r dataitem.Region, token uint64) (*fetchReply, error) {
	for _, e := range st.locks {
		if e.mode == Write && !e.region.Intersect(r).IsEmpty() {
			return nil, errWait // a drop, unlike a fetch, waits for every lock
		}
	}
	part := r.Intersect(st.frag.Region())
	if part.IsEmpty() {
		return &fetchReply{Empty: true}, nil
	}
	data, err := st.frag.Extract(part)
	if err != nil {
		return nil, err
	}
	st.lend(peer, part)
	st.pin(token, peer, Read, part)
	return &fetchReply{Data: data, Part: part, PinToken: token}, nil
}

// pin locks part on peer's behalf, outside any acquisition, until the
// token's unpin.
func (st *itemState) pin(token uint64, peer int, mode Mode, part dataitem.Region) {
	st.locks = append(st.locks, lockEntry{token: token, mode: mode, region: part, pin: peer})
}

// drop is the (migrate) rule at the holder: writer `from`, which holds
// its own copy of r under a write lock, ends the copy here (rank self)
// and takes the sharer records of r. It waits while a lock overlaps r
// (errWait): a locked replica must stay in place (satisfied
// requirements), and a pinned one has a copy in flight whose record the
// reply must carry. A holder that has nothing of r (a stale sharer
// record) answers at once.
//
// The root copy, and a replica no task here was granted since it was
// installed, are removed — the only way a rank loses data — and returned
// as evicted, for the caller to report. A replica that was read stays,
// write-pinned under token for the evictor, whose unpin brings the new
// content (settle): unreadable in between, it is gone to every other
// party without the index reports, the cache revocations and the
// re-fetch.
//
// A write lock on r means the evictor and a task here both hold a copy
// and have both locked it — staging does not wait for other copies to
// go. The lower rank goes first: a higher-ranked evictor is turned away
// (Contended), releases its locks and starts over; a lower-ranked one
// waits like behind any lock, because the local writer's own eviction of
// that rank's copy is turned away there. The lowest rank among any set of
// contenders yields to nobody, so one of them always completes. A
// write-mode pin is the write lock of the rank it is held for: the
// evictor waits for its own (the refresh of its previous acquisition is
// still on its way) and for a higher rank's, and gives way to a lower
// rank's. A pin carried for a shipped task (carry) turns away every
// evictor but its own writer: its writer may not hold the lock yet, and a
// wait for it could close a cycle through that writer's queue. A part
// given back (giveBack) is a write lock of its writer under the rank
// rule: its standing claim yields when the holder asks it back
// (reclaims), and once a write there has taken it over, that write's own
// drop of a lower rank's copy is turned away, so its release, which
// refreshes the part, waits for nothing here.
func (st *itemState) drop(from, self int, r dataitem.Region, token uint64) (reply *dropReply, evicted dataitem.Region, err error) {
	part := r.Intersect(st.frag.Region())
	if part.IsEmpty() {
		return st.release(r, from), nil, nil
	}
	busy := false
	for _, e := range st.locks {
		if e.region.Intersect(r).IsEmpty() {
			continue
		}
		busy = true
		writer := e.pin
		if writer == noPin {
			writer = self
		}
		if e.mode == Write && (from > writer || e.carried && e.back == notBack && from != writer) {
			return &dropReply{Contended: true}, nil, nil
		}
	}
	if busy {
		return nil, nil, errWait
	}
	reply = st.release(r, from)
	// The records handed over name every copy made from this one but the
	// evictor's own, and this rank may be the root holder's only link to
	// that: leave a record of the evictor beside (or in place of) the
	// evicted copy.
	st.lend(from, part)
	keep := part.Intersect(st.used).Difference(reply.Root)
	if !keep.IsEmpty() {
		reply.Kept, reply.PinToken = keep, token
		st.pin(token, from, Write, keep)
	}
	if evicted = part.Difference(keep); evicted.IsEmpty() {
		return reply, nil, nil
	}
	if err := st.forget(evicted); err != nil {
		st.end(token) // the evictor will not learn of the pin
		return nil, nil, err
	}
	return reply, evicted, nil
}

// carry is drop served ahead of its request: this rank ships `to` a
// writer of r, and the drop that writer's acquisition would send here is
// run now, its reply to travel with the task. Only the case that drop
// grants at once with nothing to report but the kept part is carried: a
// copy of r here, all of it a replica read since its install, no lock on
// r, no root part and no sharer record in r but one of `to`. The pin is
// marked carried. Otherwise nothing is carried (nil) and the state is as
// it was: the writer's acquisition sends its drop as before.
func (st *itemState) carry(to, self int, r dataitem.Region, token uint64) dataitem.Region {
	part := r.Intersect(st.frag.Region())
	if part.IsEmpty() || !part.Difference(st.used).IsEmpty() || !st.root.Intersect(r).IsEmpty() {
		return nil
	}
	for _, e := range st.locks {
		if !e.region.Intersect(r).IsEmpty() {
			return nil
		}
	}
	for peer, lr := range st.lent {
		if peer != to && !lr.Intersect(r).IsEmpty() {
			return nil
		}
	}
	reply, _, _ := st.drop(to, self, r, token) // grants at once: the tests above are drop's
	st.locks[len(st.locks)-1].carried = true
	return reply.Kept
}

// given is a part a local reader gave back to writer rank (giveBack),
// write-pinned under token here.
type given struct {
	rank  int
	kept  dataitem.Region
	token uint64
}

// giveBack is carry run as the local reader of r lets go: what a
// writer's refreshes installed here, if r covers all of it, is carried
// for that writer at once, and appended to out for the notice that makes
// it the writer's standing claim (takeCarried). Only all of it spares the
// writer's next write its drop here. A part another local reader still
// holds, or one carry would not carry, stays readable here, and so does a
// part once asked back (reread). token makes each pin's token.
func (st *itemState) giveBack(self int, r dataitem.Region, token func() uint64, out []given) []given {
	for _, f := range st.refreshed {
		if !f.Region.Difference(r).IsEmpty() {
			continue
		}
		part := f.Region
		if !st.reread.IsEmpty() {
			part = part.Difference(st.reread)
		}
		if part.IsEmpty() {
			continue
		}
		tok := token()
		if kept := st.carry(f.Rank, self, part, tok); kept != nil {
			st.locks[len(st.locks)-1].back = backGoing
			out = append(out, given{rank: f.Rank, kept: kept, token: tok})
		}
	}
	return out
}

// give marks the pin token given, its notice on its way: an ask (reclaims)
// travels behind the notice, so the writer has filed the claim it ends.
func (st *itemState) give(token uint64) {
	for i := range st.locks {
		if e := &st.locks[i]; e.token == token && e.back == backGoing {
			e.back = backGiven
		}
	}
}

// reclaims marks asked back the given pins on r not asked back yet, but
// those of rank from, appending them to out: something here waits for
// them, and their writers end the standing claims (reclaim) unless a
// write there has taken them over. A drop from a pin's own writer asks
// nothing: the writer wrote before the notice landed, and its claim
// yields to that write's lock as it lands.
func (st *itemState) reclaims(r dataitem.Region, from int, out []given) []given {
	for i := range st.locks {
		if e := &st.locks[i]; e.back == backGiven && e.pin != from && !e.region.Intersect(r).IsEmpty() {
			e.back = backAsked
			out = append(out, given{rank: e.pin, kept: e.region, token: e.token})
		}
	}
	return out
}

// unpin releases the pin token if this item holds it (ok), with data,
// the writer's refresh of a write-mode pin, read if a claim yielded it
// (settle). The token is the
// gate: a refresh whose pin is gone (released by recovery, or ended
// another way before it arrived) installs nothing, and successive writes
// need no version because each one's drop waits for the previous one's
// pin.
func (st *itemState) unpin(token uint64, data []byte, read bool) (lost dataitem.Region, ok bool) {
	for _, e := range st.locks {
		if e.token == token {
			return st.settle(e, data, read), true
		}
	}
	return nil, false
}

// settle ends the pin e. A read-mode pin just goes: the importer's copy
// is registered. Under a write-mode pin (refresh), data, the writer's
// final content of the pinned part, is installed; what it does not cover
// — all of the part, with none — is stale: it leaves the fragment before
// the lock goes, so whoever waits behind the pin stages anew instead of
// reading it, and is returned for the caller to report. A part asked
// back (reclaims) is read more than once between two writes: it never
// goes back again (reread). A claim's refresh (read) is what was here
// when the pin was taken, all of it read then: a drop keeps it.
func (st *itemState) settle(e lockEntry, data []byte, read bool) (lost dataitem.Region) {
	lost = st.typ.EmptyRegion()
	if e.mode == Write {
		lost = e.region
		if len(data) > 0 {
			if fresh, err := st.frag.Insert(data); err == nil {
				st.installed(fresh)
				if read {
					st.granted(fresh)
				}
				if e.back == backAsked {
					st.reread = st.reread.Union(fresh)
					st.refreshedBy(noPin, fresh)
				} else {
					st.refreshedBy(e.pin, fresh)
				}
				lost = lost.Difference(fresh)
			}
		}
		if !lost.IsEmpty() {
			// Best effort: a part that stays is an index entry a fetch
			// answers Empty to, which corrects itself (rule 2 in cache.go).
			_ = st.forget(lost)
		}
	}
	st.end(e.token)
	return lost
}

// unpinAll ends, without a refresh, every pin that `which` selects, and
// returns the stale part removed.
func (st *itemState) unpinAll(which func(lockEntry) bool) dataitem.Region {
	lost := st.typ.EmptyRegion()
	for i := 0; i < len(st.locks); {
		if e := st.locks[i]; e.pin != noPin && which(e) {
			lost = lost.Union(st.settle(e, nil, false)) // st.locks[i] is the next entry now
			continue
		}
		i++
	}
	return lost
}

// writePin selects the write-mode pins (unpinAll).
func writePin(e lockEntry) bool { return e.mode == Write }

// writePinned returns the part of the fragment held under write-mode
// pins: replicas kept for a writer elsewhere, unreadable until refreshed.
func (st *itemState) writePinned() dataitem.Region {
	out := st.typ.EmptyRegion()
	for _, e := range st.locks {
		if e.pin != noPin && e.mode == Write {
			out = out.Union(e.region)
		}
	}
	return out
}

// grantClaim serializes, at the index root host (in epoch), the two
// decisions that need a system-wide view: which part of a region is
// allocated nowhere yet ((init) rule: the claimant then allocates it),
// and which part has no root copy anywhere yet (the claimant's copy then
// becomes it). The grant is the part passing every test asked for. A
// reindex retracts rank by rank, forgetting the root role here (rooted)
// and at the claimant (root): a claim across a retraction gets nothing —
// one side would forget the grant, leaving a role nobody or two hold —
// and the claimant, which also drops a grant a retraction overtook
// (takeRoot), asks again.
func (st *itemState) grantClaim(args *claimArgs, epoch uint64) dataitem.Region {
	if args.Epoch != epoch {
		return st.typ.EmptyRegion()
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
	return granted
}

// takeRoot takes up the root role of a claim granted for the claimant's
// epoch `asked`, unless the epoch is no longer `now` (grantClaim).
func (st *itemState) takeRoot(granted dataitem.Region, asked, now uint64) dataitem.Region {
	if asked != now {
		return st.typ.EmptyRegion()
	}
	st.root = st.root.Union(granted)
	return granted
}

// alloc is the (init) rule's allocation: r, granted by a first-touch
// claim, is zero-allocated here — the item's only copy and, by the same
// grant, its root copy (takeRoot).
func (st *itemState) alloc(r dataitem.Region) error {
	return st.frag.Resize(st.frag.Region().Union(r))
}

// install is the (replicate) rule at the importer: the fragment grows by
// the part of r, a transferred copy in data, that is missing and takes
// that part of data — a replica, unused so far. What the fragment already
// covers is left alone: another staging of this rank fetched the same
// elements first, and a task granted since may be reading them (only a
// refresh, under its write-mode pin, overwrites covered elements). It
// reports whether the fragment grew.
func (st *itemState) install(r dataitem.Region, data []byte) (bool, error) {
	cov := st.frag.Region()
	missing := r.Difference(cov)
	if missing.IsEmpty() {
		return false, nil
	}
	if !r.Intersect(cov).IsEmpty() {
		var err error
		if data, err = clipPayload(st.typ, r, data, missing); err != nil {
			return false, err
		}
	}
	if err := st.frag.Resize(cov.Union(missing)); err != nil {
		return false, err
	}
	if _, err := st.frag.Insert(data); err != nil {
		return false, err
	}
	st.installed(missing)
	st.refreshedBy(noPin, missing)
	return true, nil
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

// blocked reports whether a lock other than token's conflicts with a
// requirement of r in mode — the (start) rule's condition — and whether
// the lock in the way is a write-mode pin (a kept replica awaiting its
// refresh).
func (st *itemState) blocked(token uint64, mode Mode, r dataitem.Region) (blocked, byRefresh bool) {
	for _, e := range st.locks {
		if e.token != token && (e.mode == Write || mode == Write) && !e.region.Intersect(r).IsEmpty() {
			return true, e.pin != noPin && e.mode == Write
		}
	}
	return false, false
}

// present reports whether r is in the fragment: (start) takes locks only
// where the data is.
func (st *itemState) present(r dataitem.Region) bool {
	return r.Difference(st.frag.Region()).IsEmpty()
}

// start is the (start) rule: r, present and not blocked, is locked under
// token for a local task. The claims token's task brought along on the
// item are its acquisition's pins now, and so are the standing claims a
// write meets — their holders' copies stay pinned until its release, the
// part outside r refreshed unchanged; a write ends every other claim on r
// (yield), appending their refreshes to out.
func (st *itemState) start(token uint64, mode Mode, r dataitem.Region, out []refresh) []refresh {
	st.locks = append(st.locks, lockEntry{token: token, mode: mode, region: r, pin: noPin})
	st.granted(r)
	for i := range st.held {
		h := &st.held[i]
		if h.owner == token || mode == Write && h.owner == standing && !h.region.Intersect(r).IsEmpty() {
			h.owner, h.carried = token, false
		}
	}
	if mode == Write {
		out = st.yield(token, r, out)
	}
	return out
}

// end is the (end) rule: the locks of token — an acquisition's or a
// pin's — go. It returns what token had read-locked (nil: nothing), for
// giveBack.
func (st *itemState) end(token uint64) (read dataitem.Region) {
	kept := st.locks[:0]
	for _, e := range st.locks {
		switch {
		case e.token != token:
			kept = append(kept, e)
		case e.mode == Read && e.pin == noPin && read == nil:
			read = e.region
		case e.mode == Read && e.pin == noPin:
			read = read.Union(e.region)
		}
	}
	st.locks = kept
	return read
}

// evicted is the (migrate) rule at the evictor, taking in the holder's
// reply to the drop of o: that copy is gone or pinned, and the holder has
// forgotten the copies made from it — they are this rank's to answer for
// until the chase has reached them, as is the holder's root role. A
// holder that keeps its copy stays on record, and the writer's record of
// its pin is filed under owner: a pin of owner's acquisition or, with
// claim, a claim of owner's task — unless the part is not here and
// readable, when the claim yields at once, its refresh appended to out.
func (st *itemState) evicted(owner uint64, o Located, reply *dropReply, claim bool, out []refresh) ([]refresh, error) {
	if err := st.fitsLocated(reply.Sharers); err != nil {
		return out, err
	}
	if reply.PinToken != 0 {
		if err := st.fits(reply.Kept); err != nil {
			return out, err
		}
	}
	if err := st.fits(reply.Root); err != nil {
		return out, err
	}
	st.unlend(o.Rank, o.Region)
	st.root = st.root.Union(reply.Root)
	for _, s := range reply.Sharers { // never this rank
		st.lend(s.Rank, s.Region)
	}
	if reply.PinToken == 0 {
		return out, nil
	}
	st.lend(o.Rank, reply.Kept)
	h := heldPin{owner: owner, rank: o.Rank, region: reply.Kept, token: reply.PinToken, carried: claim}
	if claim {
		if blocked, _ := st.blocked(0, Read, h.region); blocked || !st.present(h.region) {
			return st.owe(h, out), nil
		}
	}
	st.held = append(st.held, h)
	return out, nil
}

// takeCarried is evicted for the drop the origin `from` served as it
// shipped the task owner here (carry), or as its reader gave the part
// back (giveBack, owner standing): a reply of the kept part alone, filed
// as a claim. Its region fits (TakeCarried and handleCarry check it).
func (st *itemState) takeCarried(owner uint64, from int, c Carried, out []refresh) []refresh {
	out, _ = st.evicted(owner, Located{Region: c.Kept, Rank: from}, &dropReply{Root: st.typ.EmptyRegion(), Kept: c.Kept, PinToken: c.Token}, true, out)
	return out
}

// The writer's side of a write-mode pin (DESIGN.md §6f "A pin's two
// lives"): a record in the item it pins, filed under its owner's token —
// the acquisition a holder kept the part for, or the shipped task whose
// origin carried the drop — until the owner sends the holder its refresh.
// A claim (a record the task brought along) yields to anything else that
// needs its region before the task's acquisition locks it (start). A
// standing claim, a part its holder gave back (giveBack), belongs to no
// task: the next local write that meets it takes it over (start), and
// it yields like a task's claim, or to its holder (reclaim).

// standing is the owner of a standing claim: no acquisition's token.
const standing = ^uint64(0)

// heldPin is the writer's record of a write-mode pin at its holder.
type heldPin struct {
	owner  uint64 // the acquisition's or task's token, which owes the refresh
	rank   int    // the holder
	region dataitem.Region
	token  uint64 // the holder's pin token
	// carried marks a claim: its task brought it along (takeCarried), and
	// its acquisition has not locked the region yet.
	carried bool
}

// refresh is a dim.unpin owed to the holder of a write-mode pin: its
// token, and the pinned part's content — read if a claim yields it.
type refresh struct {
	rank  int
	token uint64
	data  []byte
	read  bool
}

// owe appends to out the refresh h's holder is owed now: the pinned part
// as it is here. A part no longer here has nothing to send, and the
// holder drops it instead. A claim's part was not written since the
// holder read it (carry takes only a part read, and every write here ends
// or takes the claim first): its refresh is marked read.
func (st *itemState) owe(h heldPin, out []refresh) []refresh {
	data, _ := st.frag.Extract(h.region)
	return append(out, refresh{rank: h.rank, token: h.token, data: data, read: h.carried})
}

// yield ends the claims on r of every owner but except, appending their
// refreshes to out: something else needs the region before the tasks
// they were carried for have locked it.
func (st *itemState) yield(except uint64, r dataitem.Region, out []refresh) []refresh {
	rest := st.held[:0]
	for _, h := range st.held {
		if h.carried && h.owner != except && !h.region.Intersect(r).IsEmpty() {
			out = st.owe(h, out)
		} else {
			rest = append(rest, h)
		}
	}
	st.held = rest
	return out
}

// reclaim ends the standing claim on holder rank's pin token, if it still
// stands, appending its refresh to out: the holder waits for the part.
func (st *itemState) reclaim(rank int, token uint64, out []refresh) []refresh {
	for i, h := range st.held {
		if h.owner == standing && h.rank == rank && h.token == token {
			st.held = slices.Delete(st.held, i, i+1)
			return st.owe(h, out)
		}
	}
	return out
}

// take ends every record of owner, claims and pins alike, appending their
// refreshes to out: its acquisition is released, or its task leaves
// without one that took its claims over.
func (st *itemState) take(owner uint64, out []refresh) []refresh {
	rest := st.held[:0]
	for _, h := range st.held {
		if h.owner == owner {
			out = st.owe(h, out)
		} else {
			rest = append(rest, h)
		}
	}
	st.held = rest
	return out
}

// notHeld clips the copies listed in owners to what the acquisition
// token has not left pinned at their holders.
func (st *itemState) notHeld(token uint64, owners []Located) []Located {
	if !slices.ContainsFunc(st.held, func(h heldPin) bool { return h.owner == token }) {
		return owners
	}
	var out []Located
	for _, o := range owners {
		for _, h := range st.held {
			if h.owner == token && h.rank == o.Rank {
				o.Region = o.Region.Difference(h.region)
			}
		}
		if !o.Region.IsEmpty() {
			out = append(out, o)
		}
	}
	return out
}

// retract enters a recovery epoch whose report versions start at floor:
// the index sides are emptied and their versions floored, so a report of
// an older epoch is stale on arrival. The directory is reset — it may rest
// on pre-crash evictions a rollback undoes, or on a chain of records
// through a dead rank — and the kept replicas go with the writers' records
// of them, here and at every rank retracting with this one: the republish
// reports the loss, and a writer's walk does not take a later copy at the
// same rank for one it holds.
func (st *itemState) retract(floor uint64) {
	for _, s := range st.index {
		for i := range s.cov {
			s.cov[i], s.seq[i] = st.typ.EmptyRegion(), max(s.seq[i], floor)
		}
	}
	st.resetDirectory()
	st.unpinAll(writePin)
	st.held = nil
}

// departed forgets what the item owes rank, which is dead or departed,
// and returns the stale part removed. Its read pins go: it will never
// confirm its copies. Its write pins settle without the refresh that will
// never come. Its sharer record goes — its copies are gone — and so does
// the root role of what it was lent: copies made from its copy were
// recorded only there, so this rank can no longer vouch for knowing them
// all. Its standing claims go, and nothing is given back to it.
func (st *itemState) departed(rank int) dataitem.Region {
	if lr, ok := st.lent[rank]; ok {
		st.root = st.root.Difference(lr)
		delete(st.lent, rank)
	}
	st.held = slices.DeleteFunc(st.held, func(h heldPin) bool { return h.owner == standing && h.rank == rank })
	st.refreshed = slices.DeleteFunc(st.refreshed, func(f Located) bool { return f.Rank == rank })
	return st.unpinAll(func(e lockEntry) bool { return e.pin == rank })
}
