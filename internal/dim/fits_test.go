package dim

import (
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/region"
)

// TestMismatchedPeerRegionIsRefused: a region in a peer's frame that
// does not fit the item — another scheme, dimensionality or tree
// height, or none — gets an error reply before it meets the item's own
// regions, whose algebra panics on it (no handler recovers), and the
// holder goes on serving.
func TestMismatchedPeerRegionIsRefused(t *testing.T) {
	grid := dataitem.NewGridType[int]("field", p(8, 8))
	tree := dataitem.NewTreeType[int]("tree", 9)
	ts := newTestSystem(t, 2, grid, tree)
	gid, err := ts.managers[0].CreateItem(grid)
	if err != nil {
		t.Fatal(err)
	}
	tid, err := ts.managers[0].CreateItem(tree)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 holds the left half of the grid and the tree's left subtree,
	// so the algebra at the holder has something to meet.
	half := gr(0, 0, 4, 8)
	left := dataitem.TreeItemRegion{T: region.SubtreeRegion(9, 2)}
	if err := ts.managers[1].Acquire(1, []Requirement{
		{Item: gid, Region: half, Mode: Write},
		{Item: tid, Region: left, Mode: Write},
	}); err != nil {
		t.Fatal(err)
	}
	ts.managers[1].Release(1)

	loc := ts.managers[0].loc
	for _, c := range []struct {
		name string
		item ItemID
		r    dataitem.Region
	}{
		{"1-d region, 2-d grid", gid, dataitem.GridRegionFromTo(p(0), p(4))},
		{"3-d region, 2-d grid", gid, dataitem.GridRegionFromTo(p(0, 0, 0), p(4, 4, 4))},
		{"interval region, grid", gid, dataitem.IntervalFromTo(0, 4)},
		{"tree region, grid", gid, left},
		{"no region, grid", gid, nil},
		{"height-5 region, height-9 tree", tid, dataitem.TreeItemRegion{T: region.SubtreeRegion(5, 2)}},
		{"empty height-5 region, height-9 tree", tid, dataitem.TreeItemRegion{T: region.EmptyTreeRegion(5)}},
		{"grid region, tree", tid, half},
	} {
		var reply dropReply
		if err := loc.Call(1, methodDrop, &dropArgs{Item: c.item, Region: c.r}, &reply); err == nil {
			t.Errorf("dim.drop, %s: answered %+v, want an error", c.name, reply)
		}
	}
	// Every other handler that takes a region from a frame checks it too.
	bad := dataitem.GridRegionFromTo(p(0, 0, 0), p(4, 4, 4))
	for method, args := range map[string]any{
		methodFetch:        &fetchArgs{Item: gid, Region: bad},
		methodClaim:        &claimArgs{Item: gid, Region: bad, Alloc: true},
		methodReport:       &reportArgs{Item: gid, Level: 2, Left: false, Region: bad, Seq: 1 << 40},
		methodResolveBatch: &batchArgs{Reqs: []batchReq{{Item: gid, Region: bad, Level: 1}}},
		methodCacheInval:   &cinvArgs{Item: gid, Region: bad},
	} {
		if err := loc.Call(1, method, args, nil); err == nil {
			t.Errorf("%s with a 3-d region for a 2-d grid: no error", method)
		}
	}

	// The holder still serves: rank 0 reads what rank 1 holds.
	if err := ts.managers[0].Acquire(2, []Requirement{
		{Item: gid, Region: half, Mode: Read},
		{Item: tid, Region: left, Mode: Read},
	}); err != nil {
		t.Fatal(err)
	}
	ts.managers[0].Release(2)
}
