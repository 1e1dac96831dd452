package tpc

import (
	"fmt"
	"sync"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/wire"
)

// treeCache memoizes the deterministic global tree per parameter set,
// so the distributed loader tasks of every locality fill their blocks
// from one shared computation instead of rebuilding it per block.
var treeCache sync.Map // cacheKey -> *Tree

type cacheKey struct {
	n, height int
	seed      int64
}

func cachedTree(p Params) *Tree {
	key := cacheKey{n: p.NumPoints, height: p.Height, seed: p.Seed}
	if v, ok := treeCache.Load(key); ok {
		return v.(*Tree)
	}
	t := BuildTree(GeneratePoints(p.NumPoints, p.Seed), p.Height)
	actual, _ := treeCache.LoadOrStore(key, t)
	return actual.(*Tree)
}

// AllScale is the managed version: the kd-tree lives in a binary-tree
// data item distributed in blocked regions (Fig. 4c) — the root block
// replicated on every locality, the depth-h subtrees spread across
// the system. Every query spawns small tasks routed to the owners of
// the traversed blocks (the behaviour whose communication overhead
// Section 4.2 discusses).
type AllScale struct {
	sys    *core.System
	params Params
	typ    *dataitem.TreeType[KDNode]
	item   dim.ItemID
	// root is params.rootRegion(): what every query requires, whatever
	// its arguments, so it is built once.
	root dataitem.TreeItemRegion
}

// numBlocks returns the count of distributable depth-h subtrees.
func (p Params) numBlocks() int { return 1 << uint(p.BlockHeight) }

// blockRoot returns the subtree root node of block b.
func (p Params) blockRoot(b int) region.NodeID {
	return region.NodeID(uint64(1)<<uint(p.BlockHeight) + uint64(b))
}

// blockOwner statically assigns block b to a rank.
func blockOwner(b, blocks, size int) int { return b * size / blocks }

// rootRegion returns the region of the replicated root block: all
// nodes above the block subtrees.
func (p Params) rootRegion() dataitem.TreeItemRegion {
	r := region.FullTreeRegion(p.Height)
	for b := 0; b < p.numBlocks(); b++ {
		r = r.Difference(region.SubtreeRegion(p.Height, p.blockRoot(b)))
	}
	return dataitem.TreeItemRegion{T: r}
}

// blockRegion returns the region of block b's subtree.
func (p Params) blockRegion(b int) dataitem.TreeItemRegion {
	return dataitem.TreeItemRegion{T: region.SubtreeRegion(p.Height, p.blockRoot(b))}
}

type loadArgs struct{ Lo, Hi int } // block range
type queryArgs struct {
	Q Point7
	R float64
}
type subArgs struct {
	Node uint64
	Q    Point7
	R    float64
}

// NewAllScale defines the tree item and task kinds; must run before
// sys.Start. It panics when BlockHeight does not leave at least the
// leaf level below the blocks.
func NewAllScale(sys *core.System, p Params) *AllScale {
	if p.BlockHeight < 1 || p.BlockHeight >= p.Height {
		panic(fmt.Sprintf("tpc: block height %d out of range for tree height %d", p.BlockHeight, p.Height))
	}
	a := &AllScale{sys: sys, params: p, root: p.rootRegion()}
	a.typ = dataitem.NewTreeType[KDNode]("tpc.tree", p.Height)
	sys.RegisterType(a.typ)

	// Loader: a divisible task over the block range; leaves write one
	// block each, so the default policy spreads first-touch blocks
	// across the system.
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: "tpc.load",
			CanSplit: func(args []byte) bool {
				var la loadArgs
				wire.Decode(args, &la)
				return la.Hi-la.Lo > 1
			},
			Split: func(ctx *sched.Ctx) (any, error) {
				var la loadArgs
				if err := ctx.Args(&la); err != nil {
					return nil, err
				}
				mid := (la.Lo + la.Hi) / 2
				_, _, err := ctx.Fork("tpc.load", &loadArgs{la.Lo, mid}, &loadArgs{mid, la.Hi})
				return nil, err
			},
			Reqs: func(args []byte) []dim.Requirement {
				var la loadArgs
				wire.Decode(args, &la)
				r := a.params.blockRegion(la.Lo)
				for b := la.Lo + 1; b < la.Hi; b++ {
					r = a.params.blockRegion(b).Union(r).(dataitem.TreeItemRegion)
				}
				return []dim.Requirement{{Item: a.item, Region: r, Mode: dim.Write}}
			},
			Process: func(ctx *sched.Ctx) (any, error) {
				var la loadArgs
				if err := ctx.Args(&la); err != nil {
					return nil, err
				}
				tree := cachedTree(a.params)
				frag, err := ctx.Manager().Fragment(a.item)
				if err != nil {
					return nil, err
				}
				tf := frag.(*dataitem.TreeFragment[KDNode])
				for b := la.Lo; b < la.Hi; b++ {
					a.params.blockRegion(b).T.ForEachNode(func(id region.NodeID) {
						*tf.Ref(id) = *tree.Node(id)
					})
				}
				return nil, nil
			},
		}
	})

	// Root-block loader: one task writing the upper tree.
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: "tpc.loadRoot",
			Reqs: func(args []byte) []dim.Requirement {
				return []dim.Requirement{{Item: a.item, Region: a.root, Mode: dim.Write}}
			},
			Process: func(ctx *sched.Ctx) (any, error) {
				tree := cachedTree(a.params)
				frag, err := ctx.Manager().Fragment(a.item)
				if err != nil {
					return nil, err
				}
				tf := frag.(*dataitem.TreeFragment[KDNode])
				a.root.T.ForEachNode(func(id region.NodeID) {
					*tf.Ref(id) = *tree.Node(id)
				})
				return nil, nil
			},
		}
	})

	// Per-query root traversal: runs wherever the (replicated) root
	// block is present, spawning one small task per traversed block.
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: "tpc.query",
			Reqs: func(args []byte) []dim.Requirement {
				return []dim.Requirement{{Item: a.item, Region: a.root, Mode: dim.Read}}
			},
			Process: func(ctx *sched.Ctx) (any, error) {
				var qa queryArgs
				if err := ctx.Args(&qa); err != nil {
					return nil, err
				}
				frag, err := ctx.Manager().Fragment(a.item)
				if err != nil {
					return nil, err
				}
				return a.query(frag.(*dataitem.TreeFragment[KDNode]), qa, ctx.Spawn)
			},
		}
	})

	// Per-block traversal: routed by Algorithm 2 to the block owner.
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: "tpc.sub",
			Reqs: func(args []byte) []dim.Requirement {
				var sa subArgs
				wire.Decode(args, &sa)
				return []dim.Requirement{{
					Item:   a.item,
					Region: dataitem.TreeItemRegion{T: region.SubtreeRegion(a.params.Height, region.NodeID(sa.Node))},
					Mode:   dim.Read,
				}}
			},
			Process: func(ctx *sched.Ctx) (any, error) {
				var sa subArgs
				if err := ctx.Args(&sa); err != nil {
					return nil, err
				}
				frag, err := ctx.Manager().Fragment(a.item)
				if err != nil {
					return nil, err
				}
				tf := frag.(*dataitem.TreeFragment[KDNode])
				id := region.NodeID(sa.Node)
				return CountVisit(tf.Ref, id, id.Depth()+1, a.params.Height, sa.Q, sa.R, nil, nil), nil
			},
		}
	})
	return a
}

// query is the body of tpc.query: it traverses the root block in tf in
// place and spawns (ctx.Spawn) one tpc.sub per block the traversal
// reaches. A spawn that fails ends the spawning, not the waiting: an
// error return implies a quiesced subtree (core/pfor.go), so every
// sub-task already spawned is waited for, and the query then fails
// with the first error instead of answering with the blocks it got.
func (a *AllScale) query(
	tf *dataitem.TreeFragment[KDNode], qa queryArgs,
	spawn func(kind string, args any, branch uint64) (*runtime.Future, error),
) (int64, error) {
	var futs []*runtime.Future
	var firstErr error
	branch := uint64(0)
	total := CountVisit(
		tf.Ref, region.Root, 1, a.params.Height, qa.Q, qa.R,
		func(id region.NodeID, level int) bool {
			return level == a.params.BlockHeight+1
		},
		func(id region.NodeID) int64 {
			if firstErr != nil {
				return 0
			}
			fut, err := spawn("tpc.sub", &subArgs{Node: uint64(id), Q: qa.Q, R: qa.R}, branch)
			branch++
			if err != nil {
				firstErr = err
			} else {
				futs = append(futs, fut)
			}
			return 0
		},
	)
	for _, f := range futs {
		var c int64
		if err := f.WaitInto(&c); err != nil && firstErr == nil {
			firstErr = err
		}
		total += c
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return total, nil
}

// Load creates the item and distributes the tree; must run after
// sys.Start.
func (a *AllScale) Load() error {
	id, err := a.sys.Manager(0).CreateItem(a.typ)
	if err != nil {
		return err
	}
	a.item = id
	if err := a.sys.Wait("tpc.loadRoot", struct{}{}, nil); err != nil {
		return err
	}
	if err := a.sys.Wait("tpc.load", &loadArgs{0, a.params.numBlocks()}, nil); err != nil {
		return err
	}
	// Replicate the root block on every locality ((replicate) rule —
	// a runtime-initiated data management decision), so queries can
	// start anywhere.
	for rank := 0; rank < a.sys.Size(); rank++ {
		mgr := a.sys.Manager(rank)
		token := uint64(0xF00D0000) + uint64(rank)
		if err := mgr.Acquire(token, []dim.Requirement{{
			Item: a.item, Region: a.root, Mode: dim.Read,
		}}); err != nil {
			return err
		}
		mgr.Release(token)
	}
	return nil
}

// Query answers one query from the given origin locality.
func (a *AllScale) Query(origin int, q Point7) (int64, error) {
	fut, err := a.sys.Scheduler(origin).Spawn("tpc.query", &queryArgs{Q: q, R: a.params.Radius})
	if err != nil {
		return 0, err
	}
	var count int64
	if err := fut.WaitInto(&count); err != nil {
		return 0, err
	}
	return count, nil
}

// RunQueries answers the parameter set's query stream, spawning
// queries round-robin from all localities (clients everywhere), with
// `inflight` queries concurrently in the system.
func (a *AllScale) RunQueries(inflight int) ([]int64, error) {
	if inflight <= 0 {
		inflight = 4 * a.sys.Size()
	}
	queries := GenerateQueries(a.params.NumQueries, a.params.Seed)
	out := make([]int64, len(queries))
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, q := range queries {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, q Point7) {
			defer wg.Done()
			defer func() { <-sem }()
			count, err := a.Query(i%a.sys.Size(), q)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			out[i] = count
			mu.Unlock()
		}(i, q)
	}
	wg.Wait()
	return out, firstErr
}

// RunAllScale is the one-call wrapper.
func RunAllScale(localities int, p Params) ([]int64, error) {
	return runAllScale(core.Config{Localities: localities}, p)
}

func runAllScale(cfg core.Config, p Params) ([]int64, error) {
	sys := core.NewSystem(cfg)
	app := NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()
	if err := app.Load(); err != nil {
		return nil, err
	}
	return app.RunQueries(0)
}

// ScatterBlocks re-places every subtree block according to owner —
// a runtime-initiated redistribution via ordinary write acquisitions
// ((migrate) transitions). Future query sub-tasks follow the blocks
// to their new owners through Algorithm 2.
func (a *AllScale) ScatterBlocks(owner func(block int) int) error {
	for b := 0; b < a.params.numBlocks(); b++ {
		rank := owner(b)
		mgr := a.sys.Manager(rank)
		token := uint64(0x5CA7_0000) + uint64(b)
		if err := mgr.Acquire(token, []dim.Requirement{{
			Item: a.item, Region: a.params.blockRegion(b), Mode: dim.Write,
		}}); err != nil {
			return err
		}
		mgr.Release(token)
	}
	return nil
}
