package dim

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/region"
	"allscale/internal/runtime"
)

// testSystem wires n localities with managers over the in-process
// fabric and a shared type registry layout (every rank registers the
// same types).
type testSystem struct {
	sys      *runtime.System
	managers []*Manager
}

func newTestSystem(t testing.TB, n int, types ...dataitem.Type) *testSystem {
	t.Helper()
	sys := runtime.NewSystem(n)
	ts := &testSystem{sys: sys}
	for i := 0; i < n; i++ {
		reg := dataitem.NewRegistry()
		for _, typ := range types {
			reg.MustRegister(typ)
		}
		ts.managers = append(ts.managers, New(sys.Locality(i), reg))
	}
	sys.Start()
	t.Cleanup(func() { sys.Close() })
	return ts
}

func p(xs ...int) region.Point { return region.Point(xs) }

func gr(minX, minY, maxX, maxY int) dataitem.GridRegion {
	return dataitem.GridRegionFromTo(p(minX, minY), p(maxX, maxY))
}

func TestHierarchyGeometry(t *testing.T) {
	// Fig. 5: 8 processes.
	if got := rootLevel(8); got != 4 {
		t.Fatalf("rootLevel(8) = %d, want 4", got)
	}
	if got := rootLevel(1); got != 1 {
		t.Fatalf("rootLevel(1) = %d, want 1", got)
	}
	if got := rootLevel(5); got != 4 { // needs 8-wide tree
		t.Fatalf("rootLevel(5) = %d, want 4", got)
	}
	// Level-2 nodes start at 0,2,4,6; level-3 at 0,4; level-4 at 0.
	for _, c := range []struct{ i, l, want int }{
		{1, 2, 0}, {2, 2, 2}, {7, 2, 6},
		{2, 3, 0}, {4, 3, 4}, {7, 3, 4},
		{4, 4, 0}, {7, 4, 0},
	} {
		if got := nodeLo(c.i, c.l); got != c.want {
			t.Errorf("nodeLo(%d,%d) = %d, want %d", c.i, c.l, got, c.want)
		}
	}
}

// TestCreateAndDestroyItem: every rank knows a new item, with no
// coverage, as soon as a request names it; a destroyed one is gone at
// once at the destroying rank, and at the others once its notice lands.
func TestCreateAndDestroyItem(t *testing.T) {
	typ := dataitem.NewGridType[float64]("field", p(16, 16))
	ts := newTestSystem(t, 4, typ)
	id, err := ts.managers[1].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	for r, m := range ts.managers {
		cov, err := m.Coverage(id)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if !cov.IsEmpty() {
			t.Fatalf("rank %d: fresh item has coverage %v", r, cov)
		}
	}
	if err := ts.managers[2].DestroyItem(id); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.managers[2].Coverage(id); !errors.Is(err, errDestroyed) {
		t.Fatalf("destroyed item at the destroying rank: %v", err)
	}
	noticesLanded(t, ts.sys.Locality(2))
	for r, m := range ts.managers {
		if _, err := m.Coverage(id); !errors.Is(err, errDestroyed) {
			t.Fatalf("rank %d: destroyed item still known (%v)", r, err)
		}
	}
}

// noticesLanded waits until every ack-only call of loc has been acked:
// the handlers of its notices have run.
func noticesLanded(t testing.TB, loc *runtime.Locality) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); loc.PendingCalls() != 0; goruntime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d: %d calls still unacked", loc.Rank(), loc.PendingCalls())
		}
	}
}

func TestCreateRequiresRegisteredType(t *testing.T) {
	ts := newTestSystem(t, 2)
	typ := dataitem.NewGridType[int]("unregistered", p(4, 4))
	if _, err := ts.managers[0].CreateItem(typ); err == nil {
		t.Fatal("create of unregistered type must fail")
	}
}

func TestAcquireWriteAllocatesFirstTouch(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, err := ts.managers[0].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	r := gr(0, 0, 4, 8)
	if err := ts.managers[1].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	cov, _ := ts.managers[1].Coverage(id)
	if !cov.Equal(dataitem.Region(r)) {
		t.Fatalf("coverage after first-touch = %v, want %v", cov, r)
	}
	// The index must locate it from the other rank.
	found, err := ts.managers[0].Lookup(id, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].Rank != 1 || !found[0].Region.Equal(dataitem.Region(r)) {
		t.Fatalf("lookup = %+v", found)
	}
	ts.managers[1].Release(1)
}

func TestWriteMigratesDataBetweenRanks(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 4, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := gr(0, 0, 8, 8)

	// Rank 0 writes initial values.
	if err := ts.managers[0].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	frag0, _ := ts.managers[0].Fragment(id)
	g0 := frag0.(*dataitem.GridFragment[int])
	n := 0
	region.BoxFromTo(p(0, 0), p(8, 8)).ForEachPoint(func(q region.Point) { g0.Set(q, n); n++ })
	ts.managers[0].Release(1)

	// Rank 3 acquires a write on a sub-region: data must migrate.
	sub := gr(2, 2, 6, 6)
	if err := ts.managers[3].Acquire(2, []Requirement{{Item: id, Region: sub, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	frag3, _ := ts.managers[3].Fragment(id)
	g3 := frag3.(*dataitem.GridFragment[int])
	if got, want := g3.At(p(2, 2)), 2*8+2; got != want {
		t.Fatalf("migrated value = %d, want %d", got, want)
	}
	if got, want := g3.At(p(5, 5)), 5*8+5; got != want {
		t.Fatalf("migrated value = %d, want %d", got, want)
	}
	// Rank 0 must no longer hold the migrated region (exclusive
	// writes).
	cov0, _ := ts.managers[0].Coverage(id)
	if !cov0.Intersect(dataitem.Region(sub)).IsEmpty() {
		t.Fatalf("rank 0 still covers %v", cov0.Intersect(dataitem.Region(sub)))
	}
	ts.managers[3].Release(2)
}

func TestReadReplicates(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := gr(0, 0, 8, 8)

	if err := ts.managers[0].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	frag0, _ := ts.managers[0].Fragment(id)
	frag0.(*dataitem.GridFragment[int]).Set(p(3, 3), 99)
	ts.managers[0].Release(1)

	sub := gr(2, 2, 5, 5)
	if err := ts.managers[1].Acquire(2, []Requirement{{Item: id, Region: sub, Mode: Read}}); err != nil {
		t.Fatal(err)
	}
	frag1, _ := ts.managers[1].Fragment(id)
	if got := frag1.(*dataitem.GridFragment[int]).At(p(3, 3)); got != 99 {
		t.Fatalf("replicated value = %d, want 99", got)
	}
	// Replication: rank 0 still holds the full region.
	cov0, _ := ts.managers[0].Coverage(id)
	if !cov0.Equal(dataitem.Region(r)) {
		t.Fatalf("source coverage after replicate = %v", cov0)
	}
	// Owners must report both copies of the replicated region.
	owners, err := ts.managers[0].Owners(id, sub)
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[int]bool{}
	for _, o := range owners {
		ranks[o.Rank] = true
	}
	if !ranks[0] || !ranks[1] {
		t.Fatalf("owners of replicated region = %+v", owners)
	}
	ts.managers[1].Release(2)
}

// TestWriteHoldsAndRefreshesReplicas: a write ends every other copy of
// its region, but a replica its holder has read is ended by locking it
// where it is, not by removing it: while rank 3 holds the write lock a
// read at rank 1 blocks, and after the release it returns rank 3's value
// without fetching anything. A replica nobody read since it was
// refreshed is removed by the next write.
func TestWriteHoldsAndRefreshesReplicas(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 4, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := gr(0, 0, 8, 8)
	rq := []Requirement{{Item: id, Region: r, Mode: Write}}
	at := func(rank int) *int {
		frag, _ := ts.managers[rank].Fragment(id)
		return frag.(*dataitem.GridFragment[int]).Ptr(p(1, 1))
	}

	if err := ts.managers[0].Acquire(1, rq); err != nil {
		t.Fatal(err)
	}
	*at(0) = 7
	ts.managers[0].Release(1)
	// Ranks 1 and 2 replicate for reading, then release.
	ts.touch(t, 1, id, r, Read)
	ts.touch(t, 2, id, r, Read)

	// Rank 3 writes: the root copy moves to it, the replicas are held.
	if err := ts.managers[3].Acquire(20, rq); err != nil {
		t.Fatal(err)
	}
	if err := CheckSystemInvariants(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	if cov := ts.coverage(t, 0, id); !cov.IsEmpty() {
		t.Fatalf("evicted root copy still holds %v", cov)
	}
	if got := *at(3); got != 7 {
		t.Fatalf("value at the writer = %d, want 7", got)
	}
	*at(3) = 8
	calls := ts.tracedCalls()
	read := make(chan int, 1)
	go func() {
		if err := ts.managers[1].Acquire(30, []Requirement{{Item: id, Region: r, Mode: Read}}); err != nil {
			t.Error(err)
		}
		read <- *at(1)
		ts.managers[1].Release(30)
	}()
	select {
	case v := <-read:
		t.Fatalf("read at rank 1 returned %d while rank 3 holds the write lock", v)
	case <-time.After(100 * time.Millisecond):
	}
	ts.managers[3].Release(20)
	select {
	case v := <-read:
		if v != 8 {
			t.Fatalf("read at rank 1 after the release = %d, want rank 3's 8", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read at rank 1 never returned")
	}
	ts.settle(t)
	if n := calls()[methodFetch]; n != 0 {
		t.Errorf("the read after the write cost %d dim.fetch, want 0", n)
	}

	// Second write: rank 1 has read its copy, rank 2 has not.
	ts.touch(t, 3, id, r, Write)
	ts.settle(t)
	if cov := ts.coverage(t, 1, id); !cov.Equal(dataitem.Region(r)) {
		t.Errorf("rank 1's replica, read since its refresh, was not kept: %v", cov)
	}
	if cov := ts.coverage(t, 2, id); !cov.IsEmpty() {
		t.Errorf("rank 2's replica, not read since its refresh, survived: %v", cov)
	}
	// Third write, no read in between: rank 3 is the only owner.
	ts.touch(t, 3, id, r, Write)
	owners, err := ts.managers[3].Owners(id, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) != 1 || owners[0].Rank != 3 {
		t.Fatalf("owners after a write nobody read in between = %+v", owners)
	}
	if !ts.managers[3].ExclusivelyOwned(id, r) {
		t.Error("writer is not the sole owner on its own records")
	}
	ts.noPins(t, id)
}

func TestLookupEscalatesThroughHierarchy(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(16, 16))
	ts := newTestSystem(t, 8, typ)
	id, _ := ts.managers[0].CreateItem(typ)

	// Each rank owns one 2-column band.
	for i := 0; i < 8; i++ {
		band := gr(2*i, 0, 2*i+2, 16)
		if err := ts.managers[i].Acquire(uint64(i+1), []Requirement{{Item: id, Region: band, Mode: Write}}); err != nil {
			t.Fatal(err)
		}
		ts.managers[i].Release(uint64(i + 1))
	}

	// Rank 5 locates a region spanning bands of ranks 1..6.
	query := gr(3, 0, 13, 16)
	found, err := ts.managers[5].Lookup(id, query)
	if err != nil {
		t.Fatal(err)
	}
	covered := dataitem.Region(dataitem.GridRegion{})
	seen := map[int]bool{}
	for _, e := range found {
		covered = covered.Union(e.Region)
		seen[e.Rank] = true
		// Verify the claimed rank really holds the segment.
		cov, _ := ts.managers[e.Rank].Coverage(id)
		if !e.Region.Difference(cov).IsEmpty() {
			t.Fatalf("rank %d does not hold %v", e.Rank, e.Region)
		}
	}
	if !covered.Equal(dataitem.Region(query)) {
		t.Fatalf("lookup covered %v, want %v", covered, query)
	}
	for rank := 1; rank <= 6; rank++ {
		if !seen[rank] {
			t.Fatalf("rank %d missing from result %v", rank, found)
		}
	}
}

func TestLookupUnallocatedReturnsNothing(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 4, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	found, err := ts.managers[2].Lookup(id, gr(0, 0, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Fatalf("lookup of unallocated region = %+v", found)
	}
}

func TestLockConflictsSerializeAcquisitions(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 1, typ)
	m := ts.managers[0]
	id, _ := m.CreateItem(typ)
	r := gr(0, 0, 8, 8)

	if err := m.Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}

	acquired := make(chan error, 1)
	go func() {
		acquired <- m.Acquire(2, []Requirement{{Item: id, Region: gr(0, 0, 2, 2), Mode: Write}})
	}()
	select {
	case err := <-acquired:
		t.Fatalf("conflicting acquire completed while lock held: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	m.Release(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire did not proceed after release")
	}
	m.Release(2)
}

func TestConcurrentReadersShareLock(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 1, typ)
	m := ts.managers[0]
	id, _ := m.CreateItem(typ)
	r := gr(0, 0, 8, 8)
	if err := m.Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	m.Release(1)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(tok uint64) {
			defer wg.Done()
			if err := m.Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Read}}); err != nil {
				errs <- err
				return
			}
			time.Sleep(10 * time.Millisecond)
			m.Release(tok)
		}(uint64(100 + i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFetchWaitsForLockRelease(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := gr(0, 0, 8, 8)
	if err := ts.managers[0].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}

	// Rank 1's write acquire must block until rank 0 releases.
	done := make(chan error, 1)
	go func() {
		done <- ts.managers[1].Acquire(2, []Requirement{{Item: id, Region: gr(0, 0, 4, 4), Mode: Write}})
	}()
	select {
	case err := <-done:
		t.Fatalf("write acquire with held remote lock completed early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	ts.managers[0].Release(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire never completed")
	}
	ts.managers[1].Release(2)
}

func TestDropReplicaRespectsLocks(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := gr(0, 0, 8, 8)
	const writer = 3 // rank 0's write acquisition
	if err := ts.managers[0].Acquire(writer, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	ts.managers[0].Release(writer)
	// Replicate to rank 1.
	if err := ts.managers[1].Acquire(2, []Requirement{{Item: id, Region: r, Mode: Read}}); err != nil {
		t.Fatal(err)
	}
	// Dropping rank 1's locked replica must block until release.
	dropped := make(chan error, 1)
	go func() { dropped <- ts.managers[0].evict(writer, id, Located{Region: r, Rank: 1}, 0) }()
	select {
	case err := <-dropped:
		t.Fatalf("drop of locked replica completed early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	ts.managers[1].Release(2)
	if err := <-dropped; err != nil {
		t.Fatal(err)
	}
	// The replica was in use: it stays, locked for the writer, and is
	// no granted requirement of anybody.
	if cov := ts.coverage(t, 1, id); !cov.Equal(dataitem.Region(r)) {
		t.Fatalf("replica in use was not kept: %v", cov)
	}
	if rd, wr, _ := ts.managers[1].LockedRegions(id); len(rd)+len(wr) != 0 {
		t.Fatalf("the writer's pin shows as a granted requirement: read %v, write %v", rd, wr)
	}
	if n := ts.pinCount(1); n != 1 {
		t.Fatalf("%d pins at rank 1, want the writer's", n)
	}
	ts.managers[0].Release(writer)
	ts.settle(t)
	ts.noPins(t, id)
	// Unread since the refresh, it goes with the next drop.
	if err := ts.managers[0].evict(writer, id, Located{Region: r, Rank: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if cov := ts.coverage(t, 1, id); !cov.IsEmpty() {
		t.Fatalf("unused replica survived drop: %v", cov)
	}
	// Rank 0 still holds the data (data preservation).
	cov0, _ := ts.managers[0].Coverage(id)
	if !cov0.Equal(dataitem.Region(r)) {
		t.Fatal("primary copy lost")
	}
}

func TestAcquireTimeoutSurfacesDeadlock(t *testing.T) {
	defer func(b time.Duration) { lockWaitBound = b }(lockWaitBound)
	lockWaitBound = 200 * time.Millisecond
	typ := dataitem.NewGridType[int]("field", p(4, 4))
	ts := newTestSystem(t, 1, typ)
	m := ts.managers[0]
	id, _ := m.CreateItem(typ)
	r := gr(0, 0, 4, 4)
	if err := m.Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	err := m.Acquire(2, []Requirement{{Item: id, Region: r, Mode: Write}})
	if err == nil || !strings.Contains(err.Error(), "application-level deadlock") {
		t.Fatalf("conflicting acquire while the lock is held: err = %v, want the deadlock diagnostic", err)
	}
	m.Release(1)
}

func TestManyItemsIndependentIndexes(t *testing.T) {
	ta := dataitem.NewGridType[int]("a", p(8, 8))
	tb := dataitem.NewGridType[int]("b", p(8, 8))
	ts := newTestSystem(t, 4, ta, tb)
	ida, _ := ts.managers[0].CreateItem(ta)
	idb, _ := ts.managers[0].CreateItem(tb)

	if err := ts.managers[1].Acquire(1, []Requirement{{Item: ida, Region: gr(0, 0, 8, 8), Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	if err := ts.managers[2].Acquire(2, []Requirement{{Item: idb, Region: gr(0, 0, 8, 8), Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	fa, _ := ts.managers[3].Lookup(ida, gr(0, 0, 8, 8))
	fb, _ := ts.managers[3].Lookup(idb, gr(0, 0, 8, 8))
	if len(fa) != 1 || fa[0].Rank != 1 {
		t.Fatalf("item a lookup = %+v", fa)
	}
	if len(fb) != 1 || fb[0].Rank != 2 {
		t.Fatalf("item b lookup = %+v", fb)
	}
	ts.managers[1].Release(1)
	ts.managers[2].Release(2)
}

func TestNonPowerOfTwoProcessCount(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(12, 4))
	ts := newTestSystem(t, 6, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	for i := 0; i < 6; i++ {
		band := gr(2*i, 0, 2*i+2, 4)
		if err := ts.managers[i].Acquire(uint64(i+1), []Requirement{{Item: id, Region: band, Mode: Write}}); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		ts.managers[i].Release(uint64(i + 1))
	}
	found, err := ts.managers[4].Lookup(id, gr(0, 0, 12, 4))
	if err != nil {
		t.Fatal(err)
	}
	covered := dataitem.Region(dataitem.GridRegion{})
	for _, e := range found {
		covered = covered.Union(e.Region)
	}
	if !covered.Equal(dataitem.Region(gr(0, 0, 12, 4))) {
		t.Fatalf("covered = %v", covered)
	}
}

func TestTreeItemDistribution(t *testing.T) {
	typ := dataitem.NewTreeType[int]("tree", 5)
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)

	left := dataitem.TreeItemRegion{T: region.SubtreeRegion(5, 2)}
	right := dataitem.TreeItemRegion{T: region.SubtreeRegion(5, 3)}
	root := dataitem.TreeItemRegion{T: region.SingleNodeRegion(5, 1)}

	if err := ts.managers[0].Acquire(1, []Requirement{
		{Item: id, Region: left.Union(root), Mode: Write},
	}); err != nil {
		t.Fatal(err)
	}
	f0, _ := ts.managers[0].Fragment(id)
	f0.(*dataitem.TreeFragment[int]).Set(region.Root, 1)
	f0.(*dataitem.TreeFragment[int]).Set(2, 2)
	ts.managers[0].Release(1)

	if err := ts.managers[1].Acquire(2, []Requirement{
		{Item: id, Region: right, Mode: Write},
		{Item: id, Region: root, Mode: Read},
	}); err != nil {
		t.Fatal(err)
	}
	f1, _ := ts.managers[1].Fragment(id)
	if got := f1.(*dataitem.TreeFragment[int]).At(region.Root); got != 1 {
		t.Fatalf("replicated tree root = %d, want 1", got)
	}
	f1.(*dataitem.TreeFragment[int]).Set(3, 3)
	ts.managers[1].Release(2)
}

func TestItemIDFormatting(t *testing.T) {
	id := MakeItemID(3, 0, 7)
	if got := fmt.Sprint(id); got != "d3.7" {
		t.Fatalf("String = %q", got)
	}
}

func TestDistributedMapItem(t *testing.T) {
	typ := dataitem.NewMapType[string, int]("kv.dist", 8)
	ts := newTestSystem(t, 2, typ)
	id, err := ts.managers[0].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}

	// Rank 0 first-touches all buckets and fills the map.
	full := typ.FullRegion()
	if err := ts.managers[0].Acquire(1, []Requirement{{Item: id, Region: full, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	frag0, _ := ts.managers[0].Fragment(id)
	m0 := frag0.(*dataitem.MapFragment[string, int])
	keys := []string{"red", "green", "blue", "cyan", "teal", "plum"}
	for i, k := range keys {
		m0.Put(k, i*11)
	}
	ts.managers[0].Release(1)

	// Rank 1 takes write ownership of one key's bucket: the pairs of
	// that bucket migrate.
	k := keys[3]
	br := typ.BucketRegion(k)
	if err := ts.managers[1].Acquire(2, []Requirement{{Item: id, Region: br, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	frag1, _ := ts.managers[1].Fragment(id)
	m1 := frag1.(*dataitem.MapFragment[string, int])
	if v, ok := m1.Get(k); !ok || v != 33 {
		t.Fatalf("migrated map value = %d,%v", v, ok)
	}
	m1.Put(k, 999)
	ts.managers[1].Release(2)

	// Rank 0 reads the key back (replication of the bucket).
	if err := ts.managers[0].Acquire(3, []Requirement{{Item: id, Region: br, Mode: Read}}); err != nil {
		t.Fatal(err)
	}
	frag0b, _ := ts.managers[0].Fragment(id)
	if v, ok := frag0b.(*dataitem.MapFragment[string, int]).Get(k); !ok || v != 999 {
		t.Fatalf("replicated map value = %d,%v", v, ok)
	}
	ts.managers[0].Release(3)

	// All other keys must be intact wherever they live.
	owners, err := ts.managers[0].Owners(id, full)
	if err != nil {
		t.Fatal(err)
	}
	covered := typ.EmptyRegion()
	for _, o := range owners {
		covered = covered.Union(o.Region)
	}
	if !covered.Equal(dataitem.Region(full)) {
		t.Fatalf("buckets lost: owners cover %v", covered)
	}
}
