package dim

import (
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/transport"
)

// TestManagerOverTCP runs the full data item manager protocol —
// create, first-touch allocation, index reporting, Algorithm 1
// lookup, migration and replication — over real TCP loopback
// endpoints instead of the in-process fabric, demonstrating that the
// runtime is genuinely message-based (the exchangeable communication
// layer of Section 3.2).
func TestManagerOverTCP(t *testing.T) {
	const n = 3
	eps, err := transport.NewTCPLoopback(n, transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		defer ep.Close()
	}

	typ := dataitem.NewGridType[int]("tcp.field", region.Point{12, 4})
	managers := make([]*Manager, n)
	for i := 0; i < n; i++ {
		loc := runtime.NewLocality(eps[i])
		loc.RegisterPromiseService()
		reg := dataitem.NewRegistry()
		reg.MustRegister(typ)
		managers[i] = New(loc, reg)
	}

	id, err := managers[0].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}

	// Each rank first-touches one band; data and index updates flow
	// over TCP.
	for i := 0; i < n; i++ {
		band := dataitem.GridRegionFromTo(region.Point{4 * i, 0}, region.Point{4 * (i + 1), 4})
		if err := managers[i].Acquire(uint64(i+1), []Requirement{{Item: id, Region: band, Mode: Write}}); err != nil {
			t.Fatalf("rank %d acquire: %v", i, err)
		}
		frag, _ := managers[i].Fragment(id)
		frag.(*dataitem.GridFragment[int]).Set(region.Point{4 * i, 0}, 100+i)
		managers[i].Release(uint64(i + 1))
	}

	// Lookup across the whole item from rank 2.
	found, err := managers[2].Lookup(id, dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{12, 4}))
	if err != nil {
		t.Fatal(err)
	}
	covered := dataitem.Region(dataitem.GridRegion{})
	for _, e := range found {
		covered = covered.Union(e.Region)
	}
	if covered.Size() != 48 {
		t.Fatalf("lookup covered %d elements, want 48", covered.Size())
	}

	// Migrate everything to rank 1 by write acquisition; values must
	// survive the TCP transfer.
	full := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{12, 4})
	if err := managers[1].Acquire(99, []Requirement{{Item: id, Region: full, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	frag, _ := managers[1].Fragment(id)
	g := frag.(*dataitem.GridFragment[int])
	for i := 0; i < n; i++ {
		if got := g.At(region.Point{4 * i, 0}); got != 100+i {
			t.Fatalf("band %d value = %d after TCP migration, want %d", i, got, 100+i)
		}
	}
	managers[1].Release(99)

	// Replicate back to rank 0 for reading.
	if err := managers[0].Acquire(7, []Requirement{{Item: id, Region: full, Mode: Read}}); err != nil {
		t.Fatal(err)
	}
	frag0, _ := managers[0].Fragment(id)
	if got := frag0.(*dataitem.GridFragment[int]).At(region.Point{8, 0}); got != 102 {
		t.Fatalf("replicated value over TCP = %d", got)
	}
	managers[0].Release(7)

	if err := managers[0].DestroyItem(id); err != nil {
		t.Fatal(err)
	}

	// The whole protocol ran over TCP: traffic must be counted, and a
	// healthy loopback fabric must report no failures.
	var msgs uint64
	for i, m := range managers {
		reg := m.loc.Metrics()
		msgs += reg.CounterValue(transport.MetricMsgsSent)
		for _, name := range []string{transport.MetricSendErrors, transport.MetricDroppedFrames, transport.MetricReconnects} {
			if v := reg.CounterValue(name); v != 0 {
				t.Fatalf("rank %d reports %s = %d on healthy loopback", i, name, v)
			}
		}
	}
	if msgs == 0 {
		t.Fatal("DIM protocol over TCP sent zero messages")
	}
}
