package core

import (
	"fmt"
	"sync/atomic"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/sched"
)

// Tree is the façade of a complete binary tree data item (Fig. 4b/4c)
// with payloads of type T — e.g. the kd-tree of the TPC application.
// Define trees before Start, create them after.
type Tree[T any] struct {
	sys  *System
	typ  *dataitem.TreeType[T]
	item atomic.Uint64
}

// DefineTree declares a binary-tree data item with the given number
// of levels and registers it on every locality. Must run before
// System.Start.
func DefineTree[T any](sys *System, name string, height int) *Tree[T] {
	t := &Tree[T]{sys: sys, typ: dataitem.NewTreeType[T](name, height)}
	sys.RegisterType(t.typ)
	return t
}

// Create introduces the data item to the runtime ((create)).
func (t *Tree[T]) Create() error {
	id, err := t.sys.mgrs[0].CreateItem(t.typ)
	if err != nil {
		return err
	}
	t.item.Store(uint64(id))
	return nil
}

// Destroy releases the data item on all localities ((destroy)).
func (t *Tree[T]) Destroy() error {
	return t.sys.mgrs[0].DestroyItem(t.Item())
}

// Item returns the tree's data item ID; zero before Create.
func (t *Tree[T]) Item() dim.ItemID { return dim.ItemID(t.item.Load()) }

// Height returns the number of tree levels.
func (t *Tree[T]) Height() int { return t.typ.Height() }

// FullRegion returns elems(d).
func (t *Tree[T]) FullRegion() dataitem.TreeItemRegion {
	return t.typ.FullRegion().(dataitem.TreeItemRegion)
}

// Subtree returns the region of the subtree rooted at node n.
func (t *Tree[T]) Subtree(n region.NodeID) dataitem.TreeItemRegion {
	return dataitem.TreeItemRegion{T: region.SubtreeRegion(t.typ.Height(), n)}
}

// Node returns the region containing only node n.
func (t *Tree[T]) Node(n region.NodeID) dataitem.TreeItemRegion {
	return dataitem.TreeItemRegion{T: region.SingleNodeRegion(t.typ.Height(), n)}
}

// Local returns the locality-local fragment for use inside task
// bodies; accesses are legitimate only within the task's granted
// data requirements.
func (t *Tree[T]) Local(ctx *sched.Ctx) *dataitem.TreeFragment[T] {
	frag, err := ctx.Fragment(t.Item())
	if err != nil {
		panic(fmt.Sprintf("core: tree %q not created: %v", t.typ.Name(), err))
	}
	return frag.(*dataitem.TreeFragment[T])
}

// Read acquires a read lock on the region, exposes the local fragment
// to fn, and releases the lock — the façade's access path outside
// tasks.
func (t *Tree[T]) Read(r dataitem.TreeItemRegion, fn func(frag *dataitem.TreeFragment[T])) error {
	mgr := t.sys.mgrs[0]
	token := readToken()
	if err := mgr.Acquire(token, []dim.Requirement{{Item: t.Item(), Region: r, Mode: dim.Read}}); err != nil {
		return err
	}
	defer mgr.Release(token)
	frag, err := mgr.Fragment(t.Item())
	if err != nil {
		return err
	}
	fn(frag.(*dataitem.TreeFragment[T]))
	return nil
}
