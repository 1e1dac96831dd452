// Package resilience implements the checkpoint/restart service the
// AllScale runtime prototype adds on top of the application model
// (Section 3.2, deliverable D5.7; Section 6 lists "runtime system
// based task checkpointing" as enabled by the model). Because the
// runtime owns the distribution of every data item, a checkpoint is
// simply the per-locality export of all fragments — no application
// code is involved, exactly the system-level capability the paper's
// introduction motivates.
//
// Checkpoints are taken at quiescent points (between computation
// phases, e.g. between pfor invocations); the caller guarantees no
// tasks are mutating the captured items. Capture is the one function
// that takes a checkpoint; the one that puts it back — after a crash or
// into a restarted system — is recovery.Coordinator.Restore.
package resilience

import (
	"fmt"
	"time"

	"allscale/internal/core"
	"allscale/internal/dim"
)

// Registry names under which the resilience service publishes its
// metrics (into the rank-0 registry of the captured system); the
// restore time is observed by recovery.Coordinator.Restore.
const (
	MetricCaptureBytes = "resilience.capture.bytes"
	MetricCaptureTime  = "resilience.capture.us"
	MetricRestoreTime  = "resilience.restore.us"
)

// FragmentRecord is one locality's share of one item.
type FragmentRecord struct {
	Item     dim.ItemID
	TypeName string
	Rank     int
	Snapshot dim.LocalSnapshot
}

// Checkpoint is a consistent capture of a set of data items across
// all localities of a system.
type Checkpoint struct {
	Localities int
	Records    []FragmentRecord
}

// Capture exports the fragments of the given items from every
// locality. With a nil item list, every live item is captured.
func Capture(sys *core.System, items []dim.ItemID) (*Checkpoint, error) {
	start := time.Now()
	if items == nil {
		items = sys.Items()
	}
	cp := &Checkpoint{Localities: sys.Size()}
	for _, id := range items {
		for rank := 0; rank < sys.Size(); rank++ {
			mgr := sys.Manager(rank)
			typeName, err := mgr.TypeName(id)
			if err != nil {
				return nil, fmt.Errorf("resilience: capture %v at rank %d: %w", id, rank, err)
			}
			snap, err := mgr.ExportLocal(id)
			if err != nil {
				return nil, fmt.Errorf("resilience: export %v at rank %d: %w", id, rank, err)
			}
			if snap.Region == nil || snap.Region.IsEmpty() {
				continue
			}
			cp.Records = append(cp.Records, FragmentRecord{
				Item: id, TypeName: typeName, Rank: rank, Snapshot: *snap,
			})
		}
	}
	reg := sys.Metrics(0)
	reg.Counter(MetricCaptureBytes).Add(uint64(cp.Size()))
	reg.Histogram(MetricCaptureTime).Observe(time.Since(start))
	return cp, nil
}

// Size reports the total payload bytes of the checkpoint.
func (cp *Checkpoint) Size() int64 {
	var n int64
	for _, rec := range cp.Records {
		n += int64(len(rec.Snapshot.Data))
	}
	return n
}
