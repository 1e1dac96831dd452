package core

import (
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/sched"
	"allscale/internal/wire"
)

func TestTreeFacadeLifecycle(t *testing.T) {
	sys := NewSystem(Config{Localities: 2})
	tree := DefineTree[string](sys, "facade.tree", 4)

	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: "tree.fill",
			Reqs: func(args []byte) []dim.Requirement {
				var node uint64
				wire.Decode(args, &node)
				return []dim.Requirement{{
					Item:   tree.Item(),
					Region: tree.Subtree(region.NodeID(node)),
					Mode:   dim.Write,
				}}
			},
			Process: func(ctx *sched.Ctx) (any, error) {
				var node uint64
				if err := ctx.Args(&node); err != nil {
					return nil, err
				}
				frag := tree.Local(ctx)
				tree.Subtree(region.NodeID(node)).T.ForEachNode(func(n region.NodeID) {
					frag.Set(n, n.String())
				})
				return ctx.Rank(), nil
			},
		}
	})
	sys.Start()
	defer sys.Close()

	if err := tree.Create(); err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 4 || tree.FullRegion().Size() != 15 {
		t.Fatalf("geometry wrong: h=%d size=%d", tree.Height(), tree.FullRegion().Size())
	}

	// Fill the two child subtrees via tasks.
	for _, node := range []uint64{2, 3} {
		if err := sys.Wait("tree.fill", node, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Read the left subtree through the façade.
	err := tree.Read(tree.Subtree(2), func(f *dataitem.TreeFragment[string]) {
		if got := f.At(4); got != "n4" {
			t.Fatalf("node 4 = %q", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Single-node region has size 1.
	if tree.Node(region.Root).Size() != 1 {
		t.Fatal("Node region size wrong")
	}
	if err := tree.Destroy(); err != nil {
		t.Fatal(err)
	}
}
