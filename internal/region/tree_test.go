package region

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNodeIDNavigation(t *testing.T) {
	if Root.Left() != 2 || Root.Right() != 3 {
		t.Fatal("root children wrong")
	}
	if NodeID(5).Parent() != 2 || NodeID(4).Parent() != 2 {
		t.Fatal("parent wrong")
	}
	if Root.Parent() != Root {
		t.Fatal("root parent must be root")
	}
	if Root.Depth() != 0 || NodeID(2).Depth() != 1 || NodeID(7).Depth() != 2 {
		t.Fatal("depth wrong")
	}
	if !NodeID(2).Contains(NodeID(9)) { // 9 = binary 1001, under 10 (=2)
		t.Fatal("2 must contain 9")
	}
	if NodeID(3).Contains(NodeID(9)) {
		t.Fatal("3 must not contain 9")
	}
	if !NodeID(5).Contains(NodeID(5)) {
		t.Fatal("node must contain itself")
	}
	if NodeID(0).IsValid() {
		t.Fatal("0 must be invalid")
	}
}

func TestTreeRegionBasics(t *testing.T) {
	const h = 4 // 15 nodes, as in Example 2.1
	full := FullTreeRegion(h)
	if got := full.Size(); got != 15 {
		t.Fatalf("full tree Size = %d, want 15", got)
	}
	empty := EmptyTreeRegion(h)
	if !empty.IsEmpty() || empty.Size() != 0 {
		t.Fatal("empty region broken")
	}
	left := SubtreeRegion(h, Root.Left())
	if got := left.Size(); got != 7 {
		t.Fatalf("left subtree Size = %d, want 7", got)
	}
	if !left.Contains(2) || !left.Contains(9) || left.Contains(3) || left.Contains(1) {
		t.Fatal("subtree containment wrong")
	}
	single := SingleNodeRegion(h, Root)
	if single.Size() != 1 || !single.Contains(Root) || single.Contains(2) {
		t.Fatal("single node region wrong")
	}
}

func TestTreeRegionFig4b(t *testing.T) {
	// Fig. 4b: partitions expressible by at most three listed nodes.
	const h = 4
	// Location A: subtree at 2 minus subtree at 5.
	a := TreeRegionFromSubtrees(h, []NodeID{2}, []NodeID{5})
	if got := a.Size(); got != 4 { // 7 - 3
		t.Fatalf("region A Size = %d, want 4", got)
	}
	if !a.Contains(2) || !a.Contains(4) || a.Contains(5) || a.Contains(10) {
		t.Fatal("region A membership wrong")
	}
	// Location B: just subtree at 5.
	b := TreeRegionFromSubtrees(h, []NodeID{5}, nil)
	// Location C: the rest.
	c := FullTreeRegion(h).Difference(a).Difference(b)
	if got := a.Size() + b.Size() + c.Size(); got != 15 {
		t.Fatalf("partition sizes sum to %d, want 15", got)
	}
	if !a.Intersect(b).IsEmpty() || !a.Intersect(c).IsEmpty() || !b.Intersect(c).IsEmpty() {
		t.Fatal("partition regions overlap")
	}
	if !a.Union(b).Union(c).Equal(FullTreeRegion(h)) {
		t.Fatal("partition does not cover the tree")
	}
}

func TestTreeRegionOpsRoundTrip(t *testing.T) {
	const h = 6
	r := TreeRegionFromSubtrees(h, []NodeID{2, 12}, []NodeID{9}).
		Union(SingleNodeRegion(h, 3))
	back := ApplyTreeOps(h, r.Ops())
	if !back.Equal(r) {
		t.Fatalf("ops round trip failed: %v -> %v", r, back)
	}
}

func TestTreeRegionZeroValue(t *testing.T) {
	var zero TreeRegion
	if !zero.IsEmpty() {
		t.Fatal("zero value must be empty")
	}
	r := SubtreeRegion(5, 3)
	if !zero.Union(r).Equal(r) {
		t.Fatal("zero ∪ r must equal r")
	}
	if !r.Intersect(zero).IsEmpty() {
		t.Fatal("r ∩ zero must be empty")
	}
	if !r.Difference(zero).Equal(r) {
		t.Fatal("r ∖ zero must equal r")
	}
}

func TestTreeRegionOutOfRange(t *testing.T) {
	r := SubtreeRegion(3, NodeID(64)) // depth 6 >= height 3
	if !r.IsEmpty() {
		t.Fatal("subtree below the leaf level must be empty")
	}
	if FullTreeRegion(3).Contains(NodeID(8)) { // depth 3 out of 3-level tree
		t.Fatal("containment beyond height must be false")
	}
}

// treeRef enumerates a TreeRegion into an explicit node set.
func treeRef(r TreeRegion) ElemSet[NodeID] {
	var elems []NodeID
	r.ForEachNode(func(n NodeID) { elems = append(elems, n) })
	return NewElemSet(elems...)
}

func randomTreeRegion(r *rand.Rand, h int) TreeRegion {
	out := EmptyTreeRegion(h)
	maxNode := int64(1)<<uint(h) - 1
	for i, n := 0, r.Intn(4); i < n; i++ {
		node := NodeID(1 + r.Int63n(maxNode))
		sub := SubtreeRegion(h, node)
		if r.Intn(2) == 0 {
			out = out.Union(sub)
		} else {
			out = out.Difference(sub)
		}
	}
	return out
}

type treePair struct{ A, B TreeRegion }

func (treePair) Generate(r *rand.Rand, _ int) reflect.Value {
	h := 2 + r.Intn(4)
	return reflect.ValueOf(treePair{A: randomTreeRegion(r, h), B: randomTreeRegion(r, h)})
}

func TestTreeRegionAgainstGroundTruth(t *testing.T) {
	f := func(p treePair) bool {
		ra, rb := treeRef(p.A), treeRef(p.B)
		return treeRef(p.A.Union(p.B)).Equal(ra.Union(rb)) &&
			treeRef(p.A.Intersect(p.B)).Equal(ra.Intersect(rb)) &&
			treeRef(p.A.Difference(p.B)).Equal(ra.Difference(rb)) &&
			p.A.Size() == ra.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeRegionSharesUnchangedSubtries pins combine's short cuts: an
// operand that is the answer — ∩ with the full region, ∖ and ∪ with the
// empty one, or a trie whose every subtrie comes back as it was — is
// returned as it is, without a node allocated.
func TestTreeRegionSharesUnchangedSubtries(t *testing.T) {
	const h = 8
	a := TreeRegionFromSubtrees(h, []NodeID{2, 13}, []NodeID{9, 21})
	full, empty := FullTreeRegion(h), EmptyTreeRegion(h)
	far := SubtreeRegion(h, 7)      // disjoint from a
	inside := SubtreeRegion(h, 8*2) // inside a
	for _, c := range []struct {
		name string
		fn   func() TreeRegion
		same TreeRegion
	}{
		{"a ∩ full", func() TreeRegion { return a.Intersect(full) }, a},
		{"full ∩ a", func() TreeRegion { return full.Intersect(a) }, a},
		{"a ∖ empty", func() TreeRegion { return a.Difference(empty) }, a},
		{"a ∪ empty", func() TreeRegion { return a.Union(empty) }, a},
		{"empty ∪ a", func() TreeRegion { return empty.Union(a) }, a},
		{"a ∖ far", func() TreeRegion { return a.Difference(far) }, a},
		{"a ∪ inside", func() TreeRegion { return a.Union(inside) }, a},
		{"a ∩ a", func() TreeRegion { return a.Intersect(a) }, a},
	} {
		if got := c.fn(); !got.Identical(c.same) || !got.Equal(c.same) {
			t.Errorf("%s = %v, want %v itself", c.name, got, c.same)
		}
		if n := testing.AllocsPerRun(100, func() { c.fn() }); n != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, n)
		}
	}
}

func TestTreeRegionAlgebraicLaws(t *testing.T) {
	f := func(p treePair) bool {
		a, b := p.A, p.B
		union := a.Union(b)
		inter := a.Intersect(b)
		return union.Equal(b.Union(a)) &&
			inter.Equal(b.Intersect(a)) &&
			a.Difference(b).Intersect(b).IsEmpty() &&
			a.Difference(b).Union(inter).Equal(a) &&
			union.Size() == a.Size()+b.Size()-inter.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRegionOpsRoundTripProperty(t *testing.T) {
	f := func(p treePair) bool {
		return ApplyTreeOps(p.A.Height(), p.A.Ops()).Equal(p.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRegionContainsMatchesEnumeration(t *testing.T) {
	f := func(p treePair) bool {
		ref := treeRef(p.A)
		h := p.A.Height()
		for id := NodeID(1); id < NodeID(1)<<uint(h); id++ {
			if p.A.Contains(id) != ref.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
