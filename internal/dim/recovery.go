package dim

import (
	"fmt"
	"sort"

	"allscale/internal/wire"
)

// Crash-recovery support of the distributed index (DESIGN.md §6c).
//
// When a rank dies its leaf coverage lingers in the inner nodes of the
// Fig. 5 index, and reports it emitted before dying may still be in
// flight. Recovery proceeds in three system-wide phases driven by the
// recovery coordinator:
//
//  1. retract — every live manager raises its recovery epoch, clears
//     all inner-node sides, and floors their versions to epoch<<32, so
//     stale pre-crash reports (stamped with the old epoch) can never
//     resurrect dead coverage;
//  2. republish — every live manager re-reports all leaf coverages,
//     rebuilding the index over the post-crash live-host geometry;
//  3. syncAlloc — the (possibly new) index root host recomputes each
//     item's allocated set from the rebuilt root coverage, so
//     first-touch claims keep serializing correctly.

type retractArgs struct {
	Epoch uint64
}

// AppendWire implements wire.Marshaler.
func (a *retractArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendUvarint(buf, a.Epoch), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *retractArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Epoch = d.Uvarint()
	return nil
}

const (
	methodRetract   = "dim.retract"
	methodRepublish = "dim.republish"
	methodSyncAlloc = "dim.syncAlloc"
)

func (m *Manager) registerRecoveryServices() {
	m.loc.Handle(methodRetract, rpc(m.handleRetract))
	m.loc.Handle(methodRepublish, rpc(m.handleRepublish))
	m.loc.Handle(methodSyncAlloc, rpc(m.handleSyncAlloc))
}

func (m *Manager) handleRetract(_ int, args *retractArgs) (*struct{}, error) {
	m.RetractEpoch(args.Epoch)
	return &struct{}{}, nil
}

func (m *Manager) handleRepublish(_ int, _ *struct{}) (*struct{}, error) {
	return &struct{}{}, m.Republish()
}

func (m *Manager) handleSyncAlloc(_ int, _ *struct{}) (*struct{}, error) {
	return &struct{}{}, m.SyncAllocatedFromIndex()
}

// RetractRemote drives phase 1 on a peer rank (self-calls short-
// circuit through the locality).
func (m *Manager) RetractRemote(rank int, epoch uint64) error {
	return m.loc.Call(rank, methodRetract, &retractArgs{Epoch: epoch}, nil, m.ctlOpt())
}

// RepublishRemote drives phase 2 on a peer rank.
func (m *Manager) RepublishRemote(rank int) error {
	return m.loc.Call(rank, methodRepublish, &struct{}{}, nil, m.ctlOpt())
}

// SyncAllocRemote drives phase 3 on the given rank, which must be the
// current live index root host.
func (m *Manager) SyncAllocRemote(rank int) error {
	return m.loc.Call(rank, methodSyncAlloc, &struct{}{}, nil, m.ctlOpt())
}

// RetractEpoch enters the given recovery epoch: all inner-node sides
// are cleared and their report versions floored to the epoch base, so
// every report stamped under an older epoch is stale on arrival. The
// epoch is monotonic; re-entering a current or older epoch still
// clears the sides (idempotent retraction).
func (m *Manager) RetractEpoch(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch > m.epoch {
		m.epoch = epoch
	}
	floor := m.epoch << 32
	for _, st := range m.items {
		for _, s := range st.index {
			s.left, s.right = st.typ.EmptyRegion(), st.typ.EmptyRegion()
			if s.leftSeq < floor {
				s.leftSeq = floor
			}
			if s.rightSeq < floor {
				s.rightSeq = floor
			}
		}
		// Every cached resolution predates the retraction and may name
		// the dead rank; the root region and the sharer records may rest
		// on pre-crash evictions that the rollback can undo, and a chain
		// of records through the dead rank is broken. Drop all three: the
		// next write of each region walks the index.
		m.invalidateLocatesLocked(st)
		st.resetDirectory()
	}
	// A kept replica waits for a refresh from a writer whose record of it
	// was just cleared: it goes too (the republish that follows reports
	// the loss), and the refresh will find no pin.
	m.settleWritePinsLocked(func(pin) bool { return true }, false)
}

// settleWritePinsLocked ends every write-mode pin that match selects,
// removing the stale part it holds (see settleLocked).
func (m *Manager) settleWritePinsLocked(match func(pin) bool, report bool) {
	var tokens []uint64
	for t, p := range m.pins {
		if p.write && match(p) {
			tokens = append(tokens, t)
		}
	}
	for _, t := range tokens {
		// Reporting releases the mutex: the pin may be gone by now.
		if p, ok := m.pins[t]; ok {
			m.settleLocked(t, p, nil, report)
		}
	}
}

// Epoch returns the manager's current recovery epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Republish re-reports the leaf coverage of every item into the
// (retracted) index, in item order for determinism.
func (m *Manager) Republish() error {
	ids := m.Items()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := m.reportUp(id); err != nil {
			return fmt.Errorf("dim: republish %v: %w", id, err)
		}
	}
	return nil
}

// SyncAllocatedFromIndex recomputes every item's allocated set from
// the rebuilt index root. It must run on the live index root host
// after all republishes: coverage owned by dead ranks leaves the
// allocated set, so survivors can re-allocate (first-touch) or restore
// (ResetLocal from a checkpoint) it.
func (m *Manager) SyncAllocatedFromIndex() error {
	root := rootLevel(m.size())
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.items {
		if s := st.index[root]; s != nil {
			st.allocated = s.left.Union(s.right)
		} else {
			st.allocated = st.frag.Region()
		}
	}
	return nil
}

// ResetLocal force-replaces the local fragment of an item with the
// union of the given snapshots, without touching the index or the
// allocation claims: the caller (the recovery coordinator's rollback)
// republishes and re-syncs afterwards. An empty snapshot list resets
// the fragment to empty, discarding post-checkpoint growth.
func (m *Manager) ResetLocal(id ItemID, snaps []*LocalSnapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(id)
	if err != nil {
		return err
	}
	region := st.typ.EmptyRegion()
	for _, s := range snaps {
		if s.Region != nil {
			region = region.Union(s.Region)
		}
	}
	// Replicas kept for a writer's refresh are replaced with the rest.
	m.settleWritePinsLocked(func(p pin) bool { return p.item == id }, false)
	if err := st.frag.Resize(region); err != nil {
		return err
	}
	for _, s := range snaps {
		if len(s.Data) > 0 {
			if _, err := st.frag.Insert(s.Data); err != nil {
				return err
			}
		}
	}
	// The fragment was force-replaced: cached maps, the root region and
	// the sharer records no longer describe reality.
	m.invalidateLocatesLocked(st)
	st.resetDirectory()
	return nil
}

// ReleasePinsOf force-releases every pin held on behalf of the given
// (dead or departed) rank, and wakes every parked wait — a handler
// serving the rank gives up (gone). A read-mode pin is a temporary lock
// the exporter holds until the importer confirms registration; a crashed
// importer never confirms, and without this its pins would block
// writers for good. A write-mode pin holds a replica
// kept for the rank's write, whose refresh will never come: the part is
// stale, so it is removed and the loss reported before the lock goes —
// a reader parked behind it wakes to find its data missing and stages
// it anew. The rank's sharer records go with it — its copies are gone —
// and so does the root status of what it was lent: copies made from its
// copy were recorded only there, so this rank can no longer vouch for
// knowing them all.
func (m *Manager) ReleasePinsOf(rank int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.items {
		if lr, ok := st.lent[rank]; ok {
			st.root = st.root.Difference(lr)
			delete(st.lent, rank)
		}
	}
	m.settleWritePinsLocked(func(p pin) bool { return p.rank == rank }, true)
	for t, p := range m.pins {
		if p.rank == rank {
			m.unlockLocked(t)
		}
	}
	m.wakeLocked()
}
