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

// RetractEpoch enters the given recovery epoch: every item retracts
// (retract) with its report versions floored to the epoch base, so every
// report stamped under an older epoch is stale on arrival, and every
// cached resolution goes — it predates the retraction and may name the
// dead rank. The epoch is monotonic; re-entering a current or older
// epoch still clears the sides (idempotent retraction).
func (m *Manager) RetractEpoch(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch > m.epoch {
		m.epoch = epoch
	}
	for _, st := range m.items {
		m.invalidateLocatesLocked(st)
		st.retract(m.epoch << 32)
	}
	m.wakeLocked()
}

// Epoch returns the manager's current recovery epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Republish re-reports the leaf coverage of every item met here (one not
// met has none) into the (retracted) index, in item order.
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
			st.allocated = s.cov[0].Union(s.cov[1])
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
	st.unpinAll(writePin)
	m.wakeLocked()
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

// ReleasePinsOf forgets, item by item, what this rank owes the given
// dead or departed rank (departed), reports the stale parts removed, and
// wakes every parked wait — a handler serving the rank gives up (gone).
// A crashed importer never confirms its copies, and a crashed writer
// never sends its refresh: without this, their pins would block writers
// for good.
func (m *Manager) ReleasePinsOf(rank int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, st := range m.items {
		if lost := st.departed(rank); !lost.IsEmpty() {
			_ = m.reportLocked(id, st, lost, rank) // best effort, as in reportLost
		}
	}
	m.wakeLocked()
}
