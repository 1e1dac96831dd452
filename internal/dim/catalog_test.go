package dim

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/runtime"
)

// The lazy catalog (DESIGN.md §6f "A lazy catalog"): an item's state is
// made where a request first names it, a destroy is a notice nobody
// waits for, and the fence it leaves keeps a late request from making
// the item again.

// known reports whether rank has a state for item id.
func (ts *testSystem) known(rank int, id ItemID) bool {
	m := ts.managers[rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.items[id]
	return ok
}

// TestLateRequestDoesNotResurrect: a drop, claim, report, cache
// revocation or carried eviction that names an item after its destroy
// notice has landed finds it destroyed and makes no state for it. Each
// is served straight by its handler, so nothing sleeps.
func TestLateRequestDoesNotResurrect(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, err := ts.managers[0].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	r := dataitem.Region(gr(0, 0, 8, 8))
	ts.touch(t, 1, id, r, Write)
	m := ts.managers[0]
	if _, err := m.handleDestroy(1, &destroyArgs{ID: id}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		method  string
		refused bool // an error, rather than a request with nothing to do
		serve   func() error
	}{
		{methodDrop, true, func() error { _, err := m.handleDrop(1, &dropArgs{Item: id, Region: r}); return err }},
		{methodClaim, true, func() error {
			_, err := m.handleClaim(1, &claimArgs{Item: id, Region: r, Alloc: true, Root: true})
			return err
		}},
		{methodFetch, true, func() error { _, err := m.handleFetch(1, &fetchArgs{Item: id, Region: r}); return err }},
		{methodReport, false, func() error {
			_, err := m.handleReport(1, &reportArgs{Item: id, Level: 2, Left: false, Region: r, Seq: 9})
			return err
		}},
		{methodCacheInval, false, func() error { _, err := m.handleCacheInval(1, &cinvArgs{Item: id, Region: r}); return err }},
		{"carried eviction", false, func() error {
			return m.TakeCarried(1, 1, func(int) (uint64, []Carried) {
				return 7, []Carried{{Item: id, Kept: r, Token: 1<<63 | 1<<48 | 3}}
			})
		}},
		{methodDestroy, false, func() error { _, err := m.handleDestroy(1, &destroyArgs{ID: id}); return err }},
	} {
		err := c.serve()
		if c.refused && !errors.Is(err, errDestroyed) {
			t.Errorf("late %s: %v, want the item destroyed", c.method, err)
		}
		if !c.refused && err != nil {
			t.Errorf("late %s: %v, want nothing to do", c.method, err)
		}
		if ts.known(0, id) {
			t.Fatalf("late %s made the destroyed item again", c.method)
		}
	}
	if n := m.Pins(); n != 0 {
		t.Errorf("%d pins left for a destroyed item", n)
	}
}

// TestDestroyFenceIsBounded: after 100 000 create/destroy pairs — one
// long-lived item among them, the notices landing out of order — the
// fence at the creator and at a peer holds one range, and still tells
// every destroyed item from a live one.
func TestDestroyFenceIsBounded(t *testing.T) {
	const pairs = 100_000
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	creator, peer := ts.managers[0], ts.managers[1]
	keep, err := creator.CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	var window []ItemID
	for i := 0; i < pairs; i++ {
		id, err := creator.CreateItem(typ)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := creator.handleDestroy(0, &destroyArgs{ID: id}); err != nil {
			t.Fatal(err)
		}
		// The notices land in reverse order, eight at a time.
		if window = append(window, id); len(window) == 8 || i == pairs-1 {
			for j := len(window) - 1; j >= 0; j-- {
				if _, err := peer.handleDestroy(0, &destroyArgs{ID: window[j]}); err != nil {
					t.Fatal(err)
				}
			}
			window = window[:0]
		}
	}
	for _, m := range []*Manager{creator, peer} {
		m.mu.Lock()
		size, items := len(m.destroyed), len(m.items)
		m.mu.Unlock()
		if size != 1 {
			t.Errorf("rank %d: the fence holds %d ranges after %d destroys, want 1", m.Rank(), size, pairs)
		}
		if items > 1 {
			t.Errorf("rank %d holds %d item states, want at most the long-lived one", m.Rank(), items)
		}
		if _, err := m.Coverage(keep); err != nil {
			t.Errorf("rank %d: the long-lived item: %v", m.Rank(), err)
		}
		last := MakeItemID(0, dataitem.TypeCode(typ.Name()), pairs+1)
		if _, err := m.Coverage(last); !errors.Is(err, errDestroyed) {
			t.Errorf("rank %d: the last destroyed item: %v", m.Rank(), err)
		}
	}
}

// TestFenceAgainstGroundTruth: the ranges answer like the set of items
// added, whatever the order and whatever type codes the IDs carry, and
// never hold two ranges that touch.
func TestFenceAgainstGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var f fence
		truth := map[[2]int]bool{}
		for i := 0; i < 60; i++ {
			c, s := rng.Intn(3), rng.Intn(40)
			f, truth[[2]int{c, s}] = f.add(MakeItemID(c, uint16(rng.Intn(1<<16)), uint32(s))), true
		}
		for c := 0; c < 3; c++ {
			for s := 0; s < 42; s++ {
				if id := MakeItemID(c, uint16(s), uint32(s)); f.has(id) != truth[[2]int{c, s}] {
					t.Fatalf("round %d: has(%v) = %v, want %v (fence %v)", round, id, f.has(id), truth[[2]int{c, s}], f)
				}
			}
		}
		for i := 1; i < len(f); i++ {
			if f[i-1][1] >= f[i][0] {
				t.Fatalf("round %d: ranges %v and %v touch", round, f[i-1], f[i])
			}
		}
	}
}

// TestPeerCannotMakeRankAllocate: a request naming an item whose type
// code nothing registers, or whose creator is no rank of the system, is
// refused and leaves no state — neither an item nor a fence range.
func TestPeerCannotMakeRankAllocate(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	m := ts.managers[0]
	r := dataitem.Region(gr(0, 0, 4, 4))
	code := dataitem.TypeCode(typ.Name())
	for _, id := range []ItemID{MakeItemID(0, code+1, 1), MakeItemID(2, code, 1), MakeItemID(0xffff, code, 1)} {
		for _, c := range []struct {
			method string
			serve  func() error
		}{
			{methodFetch, func() error { _, err := m.handleFetch(1, &fetchArgs{Item: id, Region: r}); return err }},
			{methodDrop, func() error { _, err := m.handleDrop(1, &dropArgs{Item: id, Region: r}); return err }},
			{methodClaim, func() error { _, err := m.handleClaim(1, &claimArgs{Item: id, Region: r, Alloc: true}); return err }},
			{methodReport, func() error {
				_, err := m.handleReport(1, &reportArgs{Item: id, Level: 2, Region: r, Seq: 1})
				return err
			}},
			{methodResolveBatch, func() error {
				_, err := m.handleResolveBatch(1, &batchArgs{Reqs: []batchReq{{Item: id, Region: r, Level: 1}}})
				return err
			}},
			{methodDestroy, func() error { _, err := m.handleDestroy(1, &destroyArgs{ID: id}); return err }},
			{"carried eviction", func() error {
				return m.TakeCarried(1, 1, func(int) (uint64, []Carried) {
					return 7, []Carried{{Item: id, Kept: r, Token: 1<<63 | 1<<48 | 3}}
				})
			}},
		} {
			if err := c.serve(); err == nil {
				t.Errorf("%s naming %v (%#x): no error", c.method, id, uint64(id))
			}
		}
		m.mu.Lock()
		items, fenced := len(m.items), len(m.destroyed)
		m.mu.Unlock()
		if items != 0 || fenced != 0 {
			t.Fatalf("requests naming %v left %d item states and %d fence ranges", id, items, fenced)
		}
	}
}

// TestCreateAndDestroyAwaitNoCall: CreateItem sends nothing, and
// DestroyItem returns while every peer's handler of its notice is still
// blocked — it waits for none of them.
func TestCreateAndDestroyAwaitNoCall(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	calls := func() (n uint64) {
		for r := range ts.managers {
			n += ts.counterAt(r, runtime.MetricRPCCalls)
		}
		return n
	}
	before := calls()
	id, err := ts.managers[1].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls() - before; n != 0 {
		t.Fatalf("CreateItem made %d RPC calls, want 0", n)
	}
	ts.touch(t, 2, id, gr(0, 0, 8, 8), Write)
	for _, m := range ts.managers {
		m.mu.Lock() // every handler of the notice blocks here
	}
	ts.managers[1].mu.Unlock()
	before = calls()
	done := make(chan error, 1)
	go func() { done <- ts.managers[1].DestroyItem(id) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if n := calls() - before; n != 2 {
			t.Errorf("DestroyItem made %d calls, want a notice to each of the 2 peers", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("DestroyItem waits for peers whose handlers are blocked")
		defer func() { <-done }()
	}
	ts.managers[0].mu.Unlock()
	ts.managers[2].mu.Unlock()
	noticesLanded(t, ts.sys.Locality(1))
	for r := range ts.managers {
		if ts.known(r, id) {
			t.Errorf("rank %d still knows the item its notice destroyed", r)
		}
	}
}

// TestDestroyTakesTheWritersRecords: the writer's record of a pin lives
// in the item it pins, so a destroy ends it with the item. Rank 0 holds a
// write whose drop left rank 1's read replica pinned for its refresh, and
// destroys the item before it releases: the release owes nobody a
// refresh, and once the notice has landed neither rank holds a pin.
func TestDestroyTakesTheWritersRecords(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	writer, holder := ts.managers[0], ts.managers[1]
	id, err := writer.CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	r := dataitem.Region(gr(0, 0, 8, 8))
	ts.touch(t, 0, id, r, Write)
	ts.touch(t, 1, id, r, Read)
	const tok = 7
	if err := writer.Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	if w, h := writer.Pins(), holder.Pins(); w != 1 || h != 1 {
		t.Fatalf("writer holds %d records and holder %d pins, want 1 and 1", w, h)
	}
	if err := writer.DestroyItem(id); err != nil {
		t.Fatal(err)
	}
	writer.Release(tok)
	noticesLanded(t, ts.sys.Locality(0))
	if n := ts.sum(MetricRefreshSent); n != 0 {
		t.Errorf("the release of a destroyed item's write sent %d refreshes, want none", n)
	}
	if w, h := writer.Pins(), holder.Pins(); w != 0 || h != 0 {
		t.Errorf("after the destroy: writer holds %d records and holder %d pins, want none", w, h)
	}
}
