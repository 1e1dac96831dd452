package recovery

import (
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
)

// TestJoinWarmsItemCreatedElsewhere: an item is known where it is used
// (DESIGN.md §6f "A lazy catalog"), so the lowest member's list is not
// the system's. A join's warm-up still pulls a share of an item created
// and written at rank 1 onto the joiner, which had met no item before.
func TestJoinWarmsItemCreatedElsewhere(t *testing.T) {
	const joiner = 2
	sys := core.NewSystem(core.Config{Localities: 3, Latent: []int{joiner}, Recovery: core.RecoveryConfig{Heartbeat: time.Hour}})
	typ := dataitem.NewGridType[int]("join.field", region.Point{16, 16})
	sys.RegisterType(typ)
	sys.Start()
	defer sys.Close()
	rec := Attach(sys, Options{})
	defer rec.Stop()

	id, err := sys.Manager(1).CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	full := dataitem.Region(dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{16, 16}))
	if err := sys.Manager(1).Acquire(1, []dim.Requirement{{Item: id, Region: full, Mode: dim.Write}}); err != nil {
		t.Fatal(err)
	}
	sys.Manager(1).Release(1)
	if items := sys.Manager(joiner).Items(); len(items) != 0 {
		t.Fatalf("the latent rank met %v before it joined", items)
	}
	if err := rec.Join(joiner); err != nil {
		t.Fatal(err)
	}
	if n, err := sys.Manager(joiner).CoverageSize(id); err != nil || n == 0 {
		t.Fatalf("the joiner holds %d elements of the item created at rank 1 (%v), want a share", n, err)
	}
}
