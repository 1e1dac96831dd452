package resilience

import (
	"fmt"
	"time"

	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/runtime"
	"allscale/internal/wire"
)

// Remote capture: unlike Capture, which reads every manager's state
// in-process, CaptureRemote pulls each fragment through the transport
// via the resilience.export RPC. The data then crosses the same links
// the application uses — so a severed or failing fabric surfaces as a
// clean capture error instead of a silently local-only checkpoint.

const methodExport = "resilience.export"

type exportArgs struct {
	Item dim.ItemID
}

// AppendWire implements wire.Marshaler.
func (a *exportArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendUvarint(buf, uint64(a.Item)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *exportArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Item = dim.ItemID(d.Uvarint())
	return nil
}

type exportReply struct {
	TypeName string
	Snap     dim.LocalSnapshot
}

// AppendWire implements wire.Marshaler.
func (r *exportReply) AppendWire(buf []byte) ([]byte, error) {
	return appendSnapshot(wire.AppendString(buf, r.TypeName), &r.Snap)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *exportReply) UnmarshalWire(d *wire.Decoder) error {
	r.TypeName = d.String()
	return decodeSnapshot(d, &r.Snap)
}

// RegisterExportService installs the fragment-export RPC on every
// locality of the system; must be called before traffic flows.
func RegisterExportService(sys *core.System) {
	for rank := 0; rank < sys.Size(); rank++ {
		mgr := sys.Manager(rank)
		sys.Locality(rank).Handle(methodExport, func(_ int, body []byte) ([]byte, error) {
			var args exportArgs
			if err := wire.Decode(body, &args); err != nil {
				return nil, err
			}
			name, err := mgr.TypeName(args.Item)
			if err != nil {
				return nil, err
			}
			snap, err := mgr.ExportLocal(args.Item)
			if err != nil {
				return nil, err
			}
			return wire.Encode(&exportReply{TypeName: name, Snap: *snap})
		})
	}
}

// CaptureRemote builds a checkpoint of the given items (nil for all)
// by pulling every locality's fragments over the fabric from the
// caller rank. A peer that cannot be reached fails the whole capture;
// no partial checkpoint is returned.
func CaptureRemote(sys *core.System, caller int, items []dim.ItemID) (*Checkpoint, error) {
	start := time.Now()
	if items == nil {
		seen := map[dim.ItemID]bool{}
		for rank := 0; rank < sys.Size(); rank++ {
			for _, id := range sys.Manager(rank).Items() {
				if !seen[id] {
					seen[id] = true
					items = append(items, id)
				}
			}
		}
	}
	loc := sys.Locality(caller)
	cp := &Checkpoint{Localities: sys.Size()}
	for _, id := range items {
		for rank := 0; rank < sys.Size(); rank++ {
			var reply exportReply
			// Exports are pure reads: idempotent, so retries need no
			// dedup window, but each pull is bounded so a dead peer
			// fails the capture instead of hanging it.
			if err := loc.Call(rank, methodExport, &exportArgs{Item: id}, &reply,
				runtime.WithDeadline(30*time.Second),
				runtime.WithRetries(2, 5*time.Second),
				runtime.WithIdempotent()); err != nil {
				return nil, fmt.Errorf("resilience: remote capture %v from rank %d: %w", id, rank, err)
			}
			if reply.Snap.Region == nil || reply.Snap.Region.IsEmpty() {
				continue
			}
			cp.Records = append(cp.Records, FragmentRecord{
				Item: id, TypeName: reply.TypeName, Rank: rank, Snapshot: reply.Snap,
			})
		}
	}
	reg := sys.Metrics(caller)
	reg.Counter(MetricCaptureBytes).Add(uint64(cp.Size()))
	reg.Histogram(MetricCaptureTime).Observe(time.Since(start))
	return cp, nil
}
