package core

import (
	"fmt"
	"sync/atomic"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/sched"
)

// Grid is the façade of an N-dimensional grid data item (Fig. 4a and
// the Grid<double,2> of Fig. 6b): the logical, whole-structure view
// application code programs against, while the runtime manages the
// physical fragments. Define grids before Start, create them after.
type Grid[T any] struct {
	sys  *System
	typ  *dataitem.GridType[T]
	item atomic.Uint64
}

// DefineGrid declares a grid data item type of the given extent and
// registers it on every locality. Must run before System.Start.
func DefineGrid[T any](sys *System, name string, size region.Point) *Grid[T] {
	g := &Grid[T]{sys: sys, typ: dataitem.NewGridType[T](name, size)}
	sys.RegisterType(g.typ)
	return g
}

// Create introduces the data item to the runtime ((create)
// transition). Must run after System.Start.
func (g *Grid[T]) Create() error {
	id, err := g.sys.mgrs[0].CreateItem(g.typ)
	if err != nil {
		return err
	}
	g.item.Store(uint64(id))
	return nil
}

// Destroy releases the data item on all localities ((destroy)).
func (g *Grid[T]) Destroy() error {
	return g.sys.mgrs[0].DestroyItem(g.Item())
}

// Item returns the grid's data item ID; zero before Create.
func (g *Grid[T]) Item() dim.ItemID { return dim.ItemID(g.item.Load()) }

// Size returns the grid extent.
func (g *Grid[T]) Size() region.Point { return g.typ.Size() }

// Region returns the grid region covering [lo, hi).
func (g *Grid[T]) Region(lo, hi region.Point) dataitem.GridRegion {
	return dataitem.GridRegionFromTo(lo, hi)
}

// FullRegion returns elems(d).
func (g *Grid[T]) FullRegion() dataitem.GridRegion {
	return g.typ.FullRegion().(dataitem.GridRegion)
}

// Local returns the locality-local fragment of the grid for use
// inside task bodies; accesses are legitimate only within the task's
// granted data requirements.
func (g *Grid[T]) Local(ctx *sched.Ctx) *dataitem.GridFragment[T] {
	frag, err := ctx.Fragment(g.Item())
	if err != nil {
		panic(fmt.Sprintf("core: grid %q not created: %v", g.typ.Name(), err))
	}
	return frag.(*dataitem.GridFragment[T])
}

// Read acquires a read lock on the region, copies the addressed
// elements out via fn, and releases the lock. It is the façade's
// element-access path for code outside tasks (e.g. result
// verification in examples).
func (g *Grid[T]) Read(r dataitem.GridRegion, fn func(frag *dataitem.GridFragment[T])) error {
	mgr := g.sys.mgrs[0]
	token := readToken()
	if err := mgr.Acquire(token, []dim.Requirement{{Item: g.Item(), Region: r, Mode: dim.Read}}); err != nil {
		return err
	}
	defer mgr.Release(token)
	frag, err := mgr.Fragment(g.Item())
	if err != nil {
		return err
	}
	fn(frag.(*dataitem.GridFragment[T]))
	return nil
}

var tokenSeq atomic.Uint64

// readToken names the acquisition of one façade Read. Its prefix keeps
// it clear of the other tokens a manager sees: task IDs (rank<<32 |
// seq), job result reads (1<<62 | job) and the DIM's pin tokens (1<<63
// | rank<<48 | seq). A Read that drew a pin's token would take the pin
// for its own lock and read the pinned, stale bytes past it.
func readToken() uint64 { return tokenSeq.Add(1) | 1<<61 }
