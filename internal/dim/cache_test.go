package dim

import (
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/runtime"
)

// counterAt reads a metrics counter of one rank.
func (ts *testSystem) counterAt(rank int, name string) uint64 {
	return ts.sys.Locality(rank).Metrics().CounterValue(name)
}

// TestLocateCacheSteadyStateZeroRPCs is the E13 steady-state
// assertion at the dim layer: once a resolution is cached, repeated
// lookups and owner queries of a stable distribution perform zero
// index RPCs — everything is served from the local cache.
func TestLocateCacheSteadyStateZeroRPCs(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(16, 16))
	ts := newTestSystem(t, 4, typ)
	id, err := ts.managers[1].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	r := gr(0, 0, 16, 8)
	if err := ts.managers[1].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	ts.managers[1].Release(1)

	m := ts.managers[0]
	reqs := []Requirement{{Item: id, Region: r, Mode: Read}}
	// Warm every query shape the hot path uses.
	if _, err := m.Lookup(id, r); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OwnersHint(id, r); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OwnersMulti(reqs); err != nil {
		t.Fatal(err)
	}

	rpcs := ts.counterAt(0, MetricLocateRPCs)
	hits := ts.counterAt(0, MetricLocateCacheHits)
	for i := 0; i < 50; i++ {
		if got, err := m.Lookup(id, r); err != nil || len(got) == 0 || got[0].Rank != 1 {
			t.Fatalf("lookup %d: %v %v", i, got, err)
		}
		if got, err := m.OwnersHint(id, r); err != nil || len(got) == 0 {
			t.Fatalf("owners hint %d: %v %v", i, got, err)
		}
		if got, err := m.OwnersMulti(reqs); err != nil || len(got) != 1 || len(got[0]) == 0 {
			t.Fatalf("owners multi %d: %v %v", i, got, err)
		}
	}
	if d := ts.counterAt(0, MetricLocateRPCs) - rpcs; d != 0 {
		t.Errorf("steady state issued %d locate RPCs, want 0", d)
	}
	if d := ts.counterAt(0, MetricLocateCacheHits) - hits; d < 150 {
		t.Errorf("cache hits grew by %d, want >= 150", d)
	}
}

// TestLocateCacheDisabledBypasses checks the ablation switch: with the
// cache off, every lookup walks (RPCs from a non-root rank) and no
// hits are recorded.
func TestLocateCacheDisabledBypasses(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 4, typ)
	for _, m := range ts.managers {
		m.SetLocateCache(false)
	}
	id, _ := ts.managers[1].CreateItem(typ)
	r := gr(0, 0, 8, 8)
	if err := ts.managers[1].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	ts.managers[1].Release(1)

	m := ts.managers[3] // hosts no inner node of the 4-rank hierarchy
	rpcs := ts.counterAt(3, MetricLocateRPCs)
	for i := 0; i < 5; i++ {
		if _, err := m.Lookup(id, r); err != nil {
			t.Fatal(err)
		}
	}
	if d := ts.counterAt(3, MetricLocateRPCs) - rpcs; d < 5 {
		t.Errorf("cache-off lookups issued %d RPCs, want >= 5", d)
	}
	if h := ts.counterAt(3, MetricLocateCacheHits); h != 0 {
		t.Errorf("cache-off recorded %d hits", h)
	}
}

// TestLocateCacheMigrationInvalidation is the staleness test of
// coherence rule 2: warm caches on bystander ranks must be revoked by
// a migration before it completes, so no rank keeps resolving to the
// old owner.
func TestLocateCacheMigrationInvalidation(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 4, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := gr(0, 0, 8, 8)
	if err := ts.managers[1].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	ts.managers[1].Release(1)

	// Warm bystander caches on ranks 0 and 2: both map r to rank 1.
	for _, br := range []int{0, 2} {
		if got, err := ts.managers[br].Lookup(id, r); err != nil || len(got) == 0 || got[0].Rank != 1 {
			t.Fatalf("rank %d warm lookup = %v, %v", br, got, err)
		}
		if _, err := ts.managers[br].OwnersHint(id, r); err != nil {
			t.Fatal(err)
		}
	}

	// Migrate: an exclusive write on rank 3 removes rank 1's copy.
	if err := ts.managers[3].Acquire(2, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	ts.managers[3].Release(2)

	// The bystanders' caches were revoked synchronously: resolutions
	// must now name rank 3 only — never the old owner.
	for _, br := range []int{0, 2} {
		got, err := ts.managers[br].Lookup(id, r)
		if err != nil {
			t.Fatalf("rank %d: %v", br, err)
		}
		for _, loc := range got {
			if loc.Rank == 1 {
				t.Fatalf("rank %d still resolves to the old owner: %+v", br, got)
			}
		}
		if len(got) == 0 || got[0].Rank != 3 {
			t.Fatalf("rank %d lookup after migration = %+v, want rank 3", br, got)
		}
		owners, err := ts.managers[br].Owners(id, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range owners {
			if loc.Rank == 1 {
				t.Fatalf("rank %d owners names old owner: %+v", br, owners)
			}
		}
	}
	// A real read staging driven by the (re-walked) resolution works.
	if err := ts.managers[0].Acquire(3, []Requirement{{Item: id, Region: gr(0, 0, 4, 4), Mode: Read}}); err != nil {
		t.Fatalf("read staging after migration: %v", err)
	}
	ts.managers[0].Release(3)
}

// TestLocateCacheEpochAndDeathEviction checks the fences of rule
// "never resurrect dead ownership": an entry filled under an older
// recovery epoch misses, RetractEpoch clears wholesale, and an entry
// naming a rank that has since been declared dead is dropped on sight.
func TestLocateCacheEpochAndDeathEviction(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 4, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := gr(0, 0, 8, 8)
	if err := ts.managers[1].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	ts.managers[1].Release(1)

	m := ts.managers[0]
	if _, err := m.Lookup(id, r); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.cacheGet(id, dataitem.Region(r), false); !ok {
		t.Fatal("warm entry missing")
	}

	// Epoch fence: an entry stamped under an older epoch must miss
	// even if RetractEpoch's wholesale clear were skipped.
	m.mu.Lock()
	m.epoch++
	m.mu.Unlock()
	if _, ok := m.cacheGet(id, dataitem.Region(r), false); ok {
		t.Fatal("entry from an older epoch served")
	}

	// Refill under the new epoch, then retract: wholesale clear.
	gen := m.cacheGen(id)
	m.cachePut(id, dataitem.Region(r), false, []Located{{Rank: 1, Region: dataitem.Region(r)}}, gen)
	if _, ok := m.cacheGet(id, dataitem.Region(r), false); !ok {
		t.Fatal("refill under current epoch missing")
	}
	m.RetractEpoch(m.Epoch() + 1)
	if _, ok := m.cacheGet(id, dataitem.Region(r), false); ok {
		t.Fatal("entry survived RetractEpoch")
	}

	// Death fence: a cached entry naming a now-dead rank is dropped.
	gen = m.cacheGen(id)
	m.cachePut(id, dataitem.Region(r), false, []Located{{Rank: 1, Region: dataitem.Region(r)}}, gen)
	ts.sys.Locality(0).SetPeer(1, runtime.Dead, 0)
	if _, ok := m.cacheGet(id, dataitem.Region(r), false); ok {
		t.Fatal("entry naming a dead rank served")
	}
}

// TestLocateCacheMigrationUnderChaos drives repeated full-region
// migrations with warm bystander caches over a lossy, delaying,
// duplicating fabric (seeded): no acquire may fail or stall on a
// stale cached owner, and ownership must end at the last writer.
func TestLocateCacheMigrationUnderChaos(t *testing.T) {
	const n = 3
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ms := chaosManagers(t, n, 31, typ)

	id, err := ms[0].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	full := gr(0, 0, 8, 8)
	sub := gr(0, 0, 4, 4)
	tok := uint64(0)
	next := func() uint64 { tok++; return tok }
	last := 0
	for i := 0; i < 18; i++ {
		w := i % n
		wt := next()
		if err := ms[w].Acquire(wt, []Requirement{{Item: id, Region: full, Mode: Write}}); err != nil {
			t.Fatalf("round %d: write at %d: %v", i, w, err)
		}
		ms[w].Release(wt)
		last = w
		// A bystander read warms its cache with the current owner —
		// the entry the next round's migration must revoke.
		rd := (w + 1) % n
		rt := next()
		if err := ms[rd].Acquire(rt, []Requirement{{Item: id, Region: sub, Mode: Read}}); err != nil {
			t.Fatalf("round %d: read at %d: %v", i, rd, err)
		}
		ms[rd].Release(rt)
		if _, err := ms[rd].OwnersHint(id, full); err != nil {
			t.Fatalf("round %d: owners hint at %d: %v", i, rd, err)
		}
	}
	// Exclusive consolidation: the full region lives only at `last`. The
	// bystander's replica, read since it was made, outlives the first
	// write (refreshed in place) and, unread since, not the second.
	for i := 0; i < 2; i++ {
		final := next()
		if err := ms[last].Acquire(final, []Requirement{{Item: id, Region: full, Mode: Write}}); err != nil {
			t.Fatal(err)
		}
		ms[last].Release(final)
	}
	for r := 0; r < n; r++ {
		owners, err := ms[r].Owners(id, full)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		for _, loc := range owners {
			if loc.Rank != last && !loc.Region.IsEmpty() {
				t.Fatalf("rank %d: region %v still attributed to %d (owner %d): %+v",
					r, loc.Region, loc.Rank, last, owners)
			}
		}
	}
}

// BenchmarkLocateCache measures the cached resolution hot path
// against the uncached walk on a 4-rank in-process cluster.
func BenchmarkLocateCache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "hit"
		if !cached {
			name = "walk"
		}
		b.Run(name, func(b *testing.B) {
			typ := dataitem.NewGridType[int]("field", p(16, 16))
			ts := newTestSystem(b, 4, typ)
			id, err := ts.managers[1].CreateItem(typ)
			if err != nil {
				b.Fatal(err)
			}
			r := gr(0, 0, 16, 16)
			if err := ts.managers[1].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
				b.Fatal(err)
			}
			ts.managers[1].Release(1)
			m := ts.managers[0]
			m.SetLocateCache(cached)
			if _, err := m.Lookup(id, r); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Lookup(id, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
