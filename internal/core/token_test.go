package core

import (
	goruntime "runtime"
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
)

// TestReadWaitsForTheRefreshOwedToIt: a façade Read on rank 0 must wait
// for a halo replica there that a writer on rank 1 holds pinned until
// its refresh arrives — whatever token the Read draws. Façade tokens
// used to be 1<<63 | seq, which is rank 0's pin token with the same
// seq: the Read whose seq matched took the pin for its own lock and
// returned the stale row.
func TestReadWaitsForTheRefreshOwedToIt(t *testing.T) {
	sys := NewSystem(Config{Localities: 2})
	defer sys.Close()
	g := DefineGrid[float64](sys, "token.grid", region.Point{4, 4})
	sys.Start()
	if err := g.Create(); err != nil {
		t.Fatal(err)
	}
	row := g.Region(region.Point{2, 0}, region.Point{3, 4})
	writer := sys.Manager(1)
	write := func(token uint64, v float64) {
		if err := writer.Acquire(token, []dim.Requirement{{Item: g.Item(), Region: row, Mode: dim.Write}}); err != nil {
			t.Fatal(err)
		}
		frag, err := writer.Fragment(g.Item())
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < 4; y++ {
			frag.(*dataitem.GridFragment[float64]).Set(region.Point{2, y}, v)
		}
	}
	write(1, 1)
	writer.Release(1)
	read := func() float64 {
		var v float64
		if err := g.Read(row, func(f *dataitem.GridFragment[float64]) { v = f.At(region.Point{2, 3}) }); err != nil {
			t.Error(err)
		}
		return v
	}
	// Rank 0 reads the row: a replica there, used, kept under a pin by
	// the next write on rank 1.
	if v := read(); v != 1 {
		t.Fatalf("first read = %v, want 1", v)
	}
	write(2, 2)
	if sys.Manager(0).Pins() != 1 {
		t.Fatalf("rank 0 holds %d pins, want the one for rank 1's write", sys.Manager(0).Pins())
	}
	tokenSeq.Store(0)
	const reads = 8
	got := make(chan float64, reads)
	for i := 0; i < reads; i++ {
		go func() { got <- read() }()
	}
	// Every read parks behind the pin; one that does not has answered.
	parked := sys.Metrics(0).Gauge(dim.MetricLockWaiters)
	for parked.Value() < reads && len(got) == 0 {
		goruntime.Gosched()
	}
	writer.Release(2)
	for i := 0; i < reads; i++ {
		if v := <-got; v != 2 {
			t.Errorf("a read returned %v before the refresh, want 2", v)
		}
	}
}
