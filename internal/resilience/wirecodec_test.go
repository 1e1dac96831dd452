package resilience

import (
	"bytes"
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/wire/wiretest"
)

var replySeeds = []*exportReply{
	{},
	{TypeName: "stencil.A", Snap: dim.LocalSnapshot{
		Region: dataitem.GridRegionFromTo(region.Point{0, 2}, region.Point{4, 8}),
		Data:   []byte{1, 2, 3, 0xFF},
	}},
	{TypeName: "tpc.tree", Snap: dim.LocalSnapshot{
		Region: dataitem.TreeItemRegion{T: region.TreeRegionFromSubtrees(5, []region.NodeID{2}, []region.NodeID{5})},
		Data:   []byte{},
	}},
	{TypeName: "counter", Snap: dim.LocalSnapshot{Region: dataitem.IntervalFromTo(3, 9)}},
}

// TestExportWireRoundTrip covers the request and the reply of the
// fragment-export RPC, the reply with every region scheme and none.
func TestExportWireRoundTrip(t *testing.T) {
	in := exportArgs{Item: dim.ItemID(1<<40 + 3)}
	var out exportArgs
	wiretest.RoundTrip(t, &in, &out)
	if out != in {
		t.Errorf("%+v came back as %+v", in, out)
	}
	for _, in := range replySeeds {
		var out exportReply
		wiretest.RoundTrip(t, in, &out)
		sameRegion := in.Snap.Region == nil && out.Snap.Region == nil ||
			in.Snap.Region != nil && out.Snap.Region != nil && out.Snap.Region.Equal(in.Snap.Region)
		if out.TypeName != in.TypeName || !sameRegion || !bytes.Equal(out.Snap.Data, in.Snap.Data) {
			t.Errorf("%+v came back as %+v", *in, out)
		}
	}
}

func FuzzExportReplyUnmarshal(f *testing.F) { wiretest.FuzzUnmarshal(f, replySeeds...) }
