package dataitem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"allscale/internal/region"
)

// refGrid is a map-based reference model of a grid fragment.
type refGrid map[string]int

func refKey(p region.Point) string { return p.String() }

// gridScenario is a random sequence of resize and write operations.
type gridScenario struct {
	Sizes  []region.BoxSet // successive coverage regions
	Writes []struct {
		Step int // before which resize the write happens
		P    region.Point
		V    int
	}
}

func randomRegion(r *rand.Rand) region.BoxSet {
	n := 1 + r.Intn(3)
	boxes := make([]region.Box, n)
	for i := range boxes {
		x, y := r.Intn(8), r.Intn(8)
		boxes[i] = region.NewBox(region.Point{x, y}, region.Point{x + 1 + r.Intn(4), y + 1 + r.Intn(4)})
	}
	return region.NewBoxSet(boxes...)
}

func (gridScenario) Generate(r *rand.Rand, _ int) reflect.Value {
	var s gridScenario
	steps := 2 + r.Intn(4)
	for i := 0; i < steps; i++ {
		s.Sizes = append(s.Sizes, randomRegion(r))
	}
	for i, n := 0, r.Intn(10); i < n; i++ {
		s.Writes = append(s.Writes, struct {
			Step int
			P    region.Point
			V    int
		}{Step: r.Intn(steps), P: region.Point{r.Intn(12), r.Intn(12)}, V: r.Int()})
	}
	return reflect.ValueOf(s)
}

// TestGridFragmentResizeProperty checks, against the map reference,
// that any sequence of resizes preserves exactly the data in the
// intersection of consecutive coverages and zeroes new elements.
func TestGridFragmentResizeProperty(t *testing.T) {
	typ := NewGridType[int]("prop.grid", region.Point{16, 16})
	f := func(s gridScenario) bool {
		frag := typ.NewFragment().(*GridFragment[int])
		ref := refGrid{}
		for step, target := range s.Sizes {
			if err := frag.Resize(GridRegion{B: target}); err != nil {
				return false
			}
			// Reference: keep intersection, zero new cells.
			next := refGrid{}
			target.ForEachPoint(func(p region.Point) {
				if v, ok := ref[refKey(p)]; ok {
					next[refKey(p)] = v
				} else {
					next[refKey(p)] = 0
				}
			})
			ref = next
			// Apply this step's writes (only where covered).
			for _, w := range s.Writes {
				if w.Step != step || !target.Contains(w.P) {
					continue
				}
				frag.Set(w.P, w.V)
				ref[refKey(w.P)] = w.V
			}
			// Compare extensionally.
			ok := true
			target.ForEachPoint(func(p region.Point) {
				if frag.At(p) != ref[refKey(p)] {
					ok = false
				}
			})
			if !ok || frag.Region().Size() != int64(len(ref)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestGridExtractInsertProperty checks that extract/insert between
// two fragments transports exactly the addressed sub-region.
func TestGridExtractInsertProperty(t *testing.T) {
	typ := NewGridType[int]("prop.xfer", region.Point{16, 16})
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		srcCover := randomRegion(r)
		if srcCover.IsEmpty() {
			return true
		}
		src := typ.NewFragment().(*GridFragment[int])
		if err := src.Resize(GridRegion{B: srcCover}); err != nil {
			return false
		}
		vals := map[string]int{}
		srcCover.ForEachPoint(func(p region.Point) {
			v := r.Int()
			src.Set(p, v)
			vals[refKey(p)] = v
		})
		// Transfer a random sub-region.
		sub := srcCover.Intersect(randomRegion(r))
		if sub.IsEmpty() {
			return true
		}
		data, err := src.Extract(GridRegion{B: sub})
		if err != nil {
			return false
		}
		dst := typ.NewFragment().(*GridFragment[int])
		if err := dst.Resize(GridRegion{B: sub}); err != nil {
			return false
		}
		covered, err := dst.Insert(data)
		if err != nil || !covered.Equal(GridRegion{B: sub}) {
			return false
		}
		ok := true
		sub.ForEachPoint(func(p region.Point) {
			if dst.At(p) != vals[refKey(p)] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeFragmentResizeProperty mirrors the grid property for tree
// fragments, over targets with holes and truncated subtrees, not only
// unions of subtrees: after every Resize each covered node holds what
// was last stored there (zero when it is new), a node that stayed
// covered keeps its Ref pointer, Ref and At panic for an uncovered node,
// for node 0 and for a node below the last level, and what Extract takes
// out of the fragment Insert puts back, in a fresh fragment and in it.
func TestTreeFragmentResizeProperty(t *testing.T) {
	const h = 5
	typ := NewTreeType[int]("prop.tree", h)
	node := func(r *rand.Rand) region.NodeID { return region.NodeID(1 + r.Int63n(int64(1)<<h-1)) }
	shape := func(r *rand.Rand) region.TreeRegion {
		if r.Intn(2) == 0 {
			return region.SubtreeRegion(h, node(r))
		}
		return region.Subtree{Root: node(r), Levels: 1 + r.Intn(3)}.Region(h)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		frag := typ.NewFragment().(*TreeFragment[int])
		ref := map[region.NodeID]int{}
		refs := map[region.NodeID]*int{}
		for step := 0; step < 6; step++ {
			target := region.EmptyTreeRegion(h)
			if r.Intn(3) == 0 {
				target = region.FullTreeRegion(h)
			}
			for i := 0; i < 4; i++ {
				if r.Intn(3) == 0 {
					target = target.Difference(shape(r))
				} else {
					target = target.Union(shape(r))
				}
			}
			if err := frag.Resize(TreeItemRegion{T: target}); err != nil {
				return false
			}
			if !frag.Region().Equal(TreeItemRegion{T: target}) {
				t.Logf("seed %d: region %v after a resize to %v", seed, frag.Region(), target)
				return false
			}
			next, nextRefs := map[region.NodeID]int{}, map[region.NodeID]*int{}
			kept := true
			target.ForEachNode(func(n region.NodeID) {
				next[n] = ref[n] // zero when absent
				if p, ok := refs[n]; ok && frag.Ref(n) != p {
					kept = false
				}
				nextRefs[n] = frag.Ref(n)
			})
			if !kept {
				t.Logf("seed %d: a resize to %v moved a covered node", seed, target)
				return false
			}
			ref, refs = next, nextRefs
			// Random writes, through Set and through Ref.
			for i := 0; i < 6; i++ {
				n, v := node(r), r.Int()
				if !target.Contains(n) {
					continue
				}
				if i%2 == 0 {
					frag.Set(n, v)
				} else {
					*frag.Ref(n) = v
				}
				ref[n] = v
			}
			ok := true
			target.ForEachNode(func(n region.NodeID) {
				if frag.At(n) != ref[n] {
					ok = false
				}
			})
			outside := []region.NodeID{0, 1 << h}
			if n := node(r); !target.Contains(n) {
				outside = append(outside, n)
			}
			for _, n := range outside {
				if !panics(func() { frag.Ref(n) }) || !panics(func() { frag.At(n) }) || frag.Covers(n) {
					t.Logf("seed %d: node %v is not refused by a fragment of %v", seed, n, target)
					return false
				}
			}
			if !ok || !roundTrips(frag, typ, target.Intersect(shape(r)), ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// roundTrips extracts sub from frag, inserts it into a fragment of sub
// and into frag, and checks that both then hold ref's values there.
func roundTrips(frag *TreeFragment[int], typ *TreeType[int], sub region.TreeRegion, ref map[region.NodeID]int) bool {
	data, err := frag.Extract(TreeItemRegion{T: sub})
	if err != nil {
		return false
	}
	dst := typ.NewFragment().(*TreeFragment[int])
	if err := dst.Resize(TreeItemRegion{T: sub}); err != nil {
		return false
	}
	for _, into := range []*TreeFragment[int]{dst, frag} {
		covered, err := into.Insert(data)
		if err != nil || !covered.Equal(TreeItemRegion{T: sub}) {
			return false
		}
		ok := true
		sub.ForEachNode(func(n region.NodeID) { ok = ok && into.At(n) == ref[n] })
		if !ok {
			return false
		}
	}
	return true
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}
