package dim

import (
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/region"
	"allscale/internal/runtime"
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

// TestMisshapenReplyIsRefused: a region in a peer's reply that does not
// fit the item fails the operation that asked, before it meets local
// state. Rank 0 is a bare locality — the index root host, so claims and
// index walks go there — whose dim.fetch, dim.drop and dim.claim answer
// with a 1-d region for a 2-d grid; its dim.resolveBatch does too in its
// own case and names itself as the holder of what it is asked otherwise.
func TestMisshapenReplyIsRefused(t *testing.T) {
	grid := dataitem.NewGridType[int]("field", p(8, 8))
	sys := runtime.NewSystem(2)
	defer sys.Close()
	reg := dataitem.NewRegistry()
	reg.MustRegister(grid)
	m := New(sys.Locality(1), reg)
	id, err := m.CreateItem(grid)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 holds the root copy of the right half, so the algebra has
	// something to meet.
	left, right := gr(0, 0, 4, 8), gr(4, 0, 8, 8)
	st := m.items[id]
	if err := st.frag.Resize(right); err != nil {
		t.Fatal(err)
	}
	st.root = right

	bad := dataitem.GridRegionFromTo(p(0), p(4))
	badResolve := false
	peer := sys.Locality(0)
	peer.Handle(methodResolveBatch, rpc(func(_ int, args *batchArgs) (*batchReply, error) {
		reply := &batchReply{}
		for _, rq := range args.Reqs {
			r := rq.Region
			if badResolve {
				r = bad
			}
			reply.Replies = append(reply.Replies, []Located{{Region: r, Rank: 0}})
		}
		return reply, nil
	}))
	peer.Handle(methodFetch, rpc(func(int, *fetchArgs) (*fetchReply, error) {
		return &fetchReply{Part: bad, PinToken: 1}, nil
	}))
	peer.Handle(methodClaim, rpc(func(int, *claimArgs) (*claimReply, error) {
		return &claimReply{Granted: bad}, nil
	}))
	peer.Handle(methodDrop, rpc(func(int, *dropArgs) (*dropReply, error) {
		return &dropReply{Root: bad, Sharers: []Located{{Region: bad, Rank: 0}}, Kept: bad, PinToken: 1}, nil
	}))
	sys.Start()

	for _, c := range []struct {
		method string
		op     func() error
	}{
		{methodFetch, func() error {
			err := m.Acquire(1, []Requirement{{Item: id, Region: left, Mode: Read}})
			m.Release(1)
			return err
		}},
		{methodClaim, func() error { _, err := m.claim(id, left, true, true); return err }},
		{methodDrop, func() error { return m.evict(2, id, Located{Region: left, Rank: 0}, 0) }},
		{methodResolveBatch, func() error {
			badResolve = true
			_, err := m.Owners(id, left)
			return err
		}},
	} {
		if err := c.op(); err == nil {
			t.Errorf("%s answered with a 1-d region for a 2-d grid: no error", c.method)
		}
		m.mu.Lock()
		if !st.frag.Region().Equal(right) || !st.root.Equal(right) || len(st.lent) != 0 || len(st.held) != 0 {
			t.Errorf("%s: the reply reached local state: coverage %v, root %v, lent %v, %d held pins",
				c.method, st.frag.Region(), st.root, st.lent, len(st.held))
		}
		m.mu.Unlock()
	}
}
