package region

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestSubtreesPartitionTheRegion: the truncated subtrees of a region are
// disjoint, lie in the tree and together hold exactly its nodes, and
// each one's Index numbers its nodes 0 to Size-1.
func TestSubtreesPartitionTheRegion(t *testing.T) {
	f := func(p treePair) bool {
		h, seen := p.A.Height(), map[NodeID]bool{}
		for _, s := range p.A.Subtrees() {
			slots := make([]bool, s.Size())
			n := 0
			for id := NodeID(1); id < NodeID(1)<<uint(h); id++ {
				if !s.Contains(id) {
					continue
				}
				if seen[id] || slots[s.Index(id)] {
					return false
				}
				seen[id], slots[s.Index(id)] = true, true
				n++
			}
			if n != s.Size() || !s.Region(h).Equal(TreeRegionOfNodes(h, keys(seen, s))) {
				return false
			}
		}
		return treeRef(p.A).Equal(NewElemSet(keys(seen, Subtree{Root: Root, Levels: h})...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// keys returns the nodes of set that s holds.
func keys(set map[NodeID]bool, s Subtree) (out []NodeID) {
	for id := range set {
		if s.Contains(id) {
			out = append(out, id)
		}
	}
	return out
}

// TestSubtreesAreFew pins the decomposition of the shapes fragments
// hold: a TPC root block is one truncated subtree however many blocks
// hang below it, a block is one, and a tree missing one node is the
// path down to the node and the siblings along it — not one subtree per
// node of the level the hole is on.
func TestSubtreesAreFew(t *testing.T) {
	const h = 10
	root := FullTreeRegion(h)
	for b := NodeID(8); b < 16; b++ {
		root = root.Difference(SubtreeRegion(h, b))
	}
	withBlocks := root.Union(SubtreeRegion(h, 9)).Union(SubtreeRegion(h, 14))
	for _, c := range []struct {
		name string
		r    TreeRegion
		want []Subtree
	}{
		{"root block", root, []Subtree{{1, 3}}},
		{"block", SubtreeRegion(h, 12), []Subtree{{12, 7}}},
		{"root block and two blocks", withBlocks, []Subtree{{1, 3}, {9, 7}, {14, 7}}},
		{"all but the root", FullTreeRegion(h).Difference(SingleNodeRegion(h, Root)), []Subtree{{2, 9}, {3, 9}}},
	} {
		if got := c.r.Subtrees(); !slices.Equal(got, c.want) {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
	leaf := NodeID(1)<<(h-1) + 5
	if got := FullTreeRegion(h).Difference(SingleNodeRegion(h, leaf)).Subtrees(); len(got) != 2*(h-1) {
		t.Errorf("a tree without leaf %v: %d subtrees, want %d: %v", leaf, len(got), 2*(h-1), got)
	}
}

// TestTreeRegionOfNodes: the region built from a list of nodes, in any
// order and with repeats, is the union of the single nodes, and a node
// the tree does not have panics.
func TestTreeRegionOfNodes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := 1 + r.Intn(6)
		var nodes []NodeID
		want := EmptyTreeRegion(h)
		for range r.Intn(20) {
			n := NodeID(1 + r.Int63n(int64(1)<<uint(h)-1))
			nodes = append(nodes, n, n)
			want = want.Union(SingleNodeRegion(h, n))
		}
		got := TreeRegionOfNodes(h, nodes)
		return got.Equal(want) && got.Size() == want.Size() && ApplyTreeOps(h, got.Ops()).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []NodeID{0, 1 << 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("node %v of a 4-level tree did not panic", n)
				}
			}()
			TreeRegionOfNodes(4, []NodeID{1, n})
		}()
	}
}
