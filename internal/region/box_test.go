package region

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := NewBox(Point{10, 10, 10}, Point{21, 21, 21})
	if b.IsEmpty() {
		t.Fatal("non-empty box reported empty")
	}
	if got := b.Size(); got != 11*11*11 {
		t.Fatalf("Size = %d, want %d", got, 11*11*11)
	}
	if !b.Contains(Point{10, 10, 10}) || b.Contains(Point{21, 10, 10}) {
		t.Fatal("half-open containment wrong")
	}
	if !NewBox(Point{0, 0}, Point{0, 5}).IsEmpty() {
		t.Fatal("zero-width box must be empty")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := NewBox(Point{0, 0}, Point{10, 10})
	b := NewBox(Point{5, 5}, Point{15, 15})
	in := a.Intersect(b)
	want := NewBox(Point{5, 5}, Point{10, 10})
	if !in.Min.Equal(want.Min) || !in.Max.Equal(want.Max) {
		t.Fatalf("Intersect = %v, want %v", in, want)
	}
	c := NewBox(Point{20, 20}, Point{30, 30})
	if !a.Intersect(c).IsEmpty() {
		t.Fatal("disjoint boxes must have empty intersection")
	}
}

func TestBoxSubtract(t *testing.T) {
	a := NewBox(Point{0, 0}, Point{10, 10})
	b := NewBox(Point{3, 3}, Point{7, 7})
	pieces := a.subtract(b, nil)
	var total int64
	for i, p := range pieces {
		total += p.Size()
		if p.Intersects(b) {
			t.Fatalf("piece %v intersects subtracted box", p)
		}
		for j, q := range pieces {
			if i != j && p.Intersects(q) {
				t.Fatalf("pieces %v and %v overlap", p, q)
			}
		}
	}
	if total != a.Size()-b.Size() {
		t.Fatalf("subtract volume = %d, want %d", total, a.Size()-b.Size())
	}
	// Subtracting a disjoint box passes the original through, corners
	// and all; a covering one leaves nothing.
	pieces = a.subtract(NewBox(Point{50, 50}, Point{60, 60}), nil)
	if len(pieces) != 1 || &pieces[0].Min[0] != &a.Min[0] || &pieces[0].Max[0] != &a.Max[0] {
		t.Fatalf("disjoint subtract changed box: %v", pieces)
	}
	if pieces = b.subtract(a, nil); len(pieces) != 0 {
		t.Fatalf("covered subtract left %v", pieces)
	}
}

// TestBoxCornersShareOneBlock: a box the package builds holds both its
// corners in one allocation, and Intersect builds a box only where
// neither operand is the answer.
func TestBoxCornersShareOneBlock(t *testing.T) {
	a := NewBox(Point{0, 0, 0}, Point{8, 8, 8})
	if got := testing.AllocsPerRun(100, func() { NewBox(a.Min, a.Max) }); got != 1 {
		t.Errorf("NewBox: %v allocations, want 1", got)
	}
	inner := NewBox(Point{2, 2, 2}, Point{4, 4, 4})
	if in := a.Intersect(inner); &in.Min[0] != &inner.Min[0] {
		t.Errorf("a box inside the other is not returned as it is")
	}
	if in := inner.Intersect(a); &in.Min[0] != &inner.Min[0] {
		t.Errorf("a box inside the other is not returned as it is")
	}
	far := NewBox(Point{9, 0, 0}, Point{10, 8, 8})
	if in := a.Intersect(far); !in.IsEmpty() {
		t.Errorf("disjoint boxes intersect in %v", in)
	}
	for _, c := range []struct {
		name string
		o    Box
		want float64
	}{
		{"disjoint", far, 0},
		{"inside", inner, 0},
		{"partial", NewBox(Point{4, 4, 4}, Point{12, 12, 12}), 1},
	} {
		if got := testing.AllocsPerRun(100, func() { a.Intersect(c.o) }); got != c.want {
			t.Errorf("Intersect %s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

func TestBoxSetDisjointInvariant(t *testing.T) {
	s := NewBoxSet(
		NewBox(Point{0, 0}, Point{10, 10}),
		NewBox(Point{5, 5}, Point{15, 15}),
		NewBox(Point{0, 0}, Point{3, 3}),
	)
	boxes := s.Boxes()
	var total int64
	for i, a := range boxes {
		total += a.Size()
		for j, b := range boxes {
			if i != j && a.Intersects(b) {
				t.Fatalf("stored boxes %v and %v overlap", a, b)
			}
		}
	}
	// |A ∪ B| with A=10x10, B=10x10 overlapping 5x5 = 100+100-25 = 175.
	if total != 175 {
		t.Fatalf("union size = %d, want 175", total)
	}
	if s.Size() != 175 {
		t.Fatalf("Size = %d, want 175", s.Size())
	}
}

func TestBoxSetOps2D(t *testing.T) {
	a := BoxFromTo(Point{0, 0}, Point{10, 10})
	b := BoxFromTo(Point{5, 0}, Point{15, 10})

	if got := a.Union(b).Size(); got != 150 {
		t.Fatalf("Union size = %d, want 150", got)
	}
	if got := a.Intersect(b).Size(); got != 50 {
		t.Fatalf("Intersect size = %d, want 50", got)
	}
	if got := a.Difference(b).Size(); got != 50 {
		t.Fatalf("Difference size = %d, want 50", got)
	}
	if !a.Difference(b).Equal(BoxFromTo(Point{0, 0}, Point{5, 10})) {
		t.Fatal("Difference region wrong")
	}
}

func TestBoxSetEqualExtensional(t *testing.T) {
	// The same region decomposed two different ways must be Equal.
	a := NewBoxSet(
		NewBox(Point{0, 0}, Point{5, 10}),
		NewBox(Point{5, 0}, Point{10, 10}),
	)
	b := NewBoxSet(
		NewBox(Point{0, 0}, Point{10, 5}),
		NewBox(Point{0, 5}, Point{10, 10}),
	)
	if !a.Equal(b) {
		t.Fatal("extensionally equal box sets reported unequal")
	}
	if a.Equal(b.Difference(BoxFromTo(Point{3, 3}, Point{4, 4}))) {
		t.Fatal("unequal box sets reported equal")
	}
}

// TestBoxSetEqualFastPaths: a locate-cache lookup compares its probe
// with every entry under the manager's lock, and both outcomes it meets
// there — another region (another size) and the same region built by
// the same code (the same boxes) — are decided without allocating; so
// is Box.Intersects.
func TestBoxSetEqualFastPaths(t *testing.T) {
	build := func(shift int) BoxSet {
		return NewBoxSet(
			NewBox(Point{shift, 0}, Point{shift + 8, 64}),
			NewBox(Point{shift + 4, 10}, Point{shift + 12, 20}),
		)
	}
	key, probe, other := build(0), build(0), build(0).Union(BoxFromTo(Point{40, 0}, Point{41, 1}))
	shifted := build(1) // same size, same shape, other points: the slow path
	if !key.Equal(probe) || key.Equal(other) || key.Equal(shifted) || !(BoxSet{}).Equal(BoxSet{}) {
		t.Fatal("Equal answers wrongly")
	}
	a, b := key.boxes[0], other.boxes[len(other.boxes)-1]
	if a.Intersects(b) || !a.Intersects(a) || (Box{}).Intersects(a) {
		t.Fatal("Intersects answers wrongly")
	}
	for name, fn := range map[string]func(){
		"Equal, same boxes":      func() { key.Equal(probe) },
		"Equal, different sizes": func() { key.Equal(other) },
		"Intersects":             func() { a.Intersects(b); a.Intersects(a) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}

func TestBoxSetForEachPoint(t *testing.T) {
	s := NewBoxSet(NewBox(Point{0, 0}, Point{2, 2}), NewBox(Point{10, 10}, Point{11, 12}))
	var pts []string
	s.ForEachPoint(func(p Point) { pts = append(pts, p.String()) })
	want := []string{"(0,0)", "(0,1)", "(1,0)", "(1,1)", "(10,10)", "(10,11)"}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("points = %v, want %v", pts, want)
	}
}

func TestBoxSetBoundingBox(t *testing.T) {
	s := NewBoxSet(NewBox(Point{5, 1}, Point{6, 2}), NewBox(Point{0, 8}, Point{2, 9}))
	bb, ok := s.BoundingBox()
	if !ok {
		t.Fatal("bounding box of non-empty set missing")
	}
	if !bb.Min.Equal(Point{0, 1}) || !bb.Max.Equal(Point{6, 9}) {
		t.Fatalf("bounding box = %v", bb)
	}
	if _, ok := (BoxSet{}).BoundingBox(); ok {
		t.Fatal("empty set must have no bounding box")
	}
}

// boxRef converts a BoxSet to an explicit point set for ground truth.
func boxRef(s BoxSet) ElemSet[string] {
	var elems []string
	s.ForEachPoint(func(p Point) { elems = append(elems, p.String()) })
	return NewElemSet(elems...)
}

func randomBoxSet(r *rand.Rand, dims int) BoxSet {
	n := r.Intn(4)
	boxes := make([]Box, n)
	for i := range boxes {
		min := make(Point, dims)
		max := make(Point, dims)
		for d := 0; d < dims; d++ {
			min[d] = r.Intn(8)
			max[d] = min[d] + r.Intn(5)
		}
		boxes[i] = Box{Min: min, Max: max}
	}
	return NewBoxSet(boxes...)
}

type boxPair struct{ A, B BoxSet }

func (boxPair) Generate(r *rand.Rand, _ int) reflect.Value {
	dims := 1 + r.Intn(3)
	return reflect.ValueOf(boxPair{A: randomBoxSet(r, dims), B: randomBoxSet(r, dims)})
}

// boxRelations are the ways a second operand can relate to the first
// that the set algebra answers by short cuts: every box inside a box of
// the other, around it, sharing a face with it, the same boxes (rebuilt,
// or the very same set), far away — and no relation at all.
var boxRelations = []string{"contained", "containing", "touching", "identical", "self", "disjoint", "random"}

// relatedBoxSet builds a second operand in relation rel to a.
func relatedBoxSet(r *rand.Rand, a BoxSet, rel string) BoxSet {
	switch rel {
	case "self":
		return a
	case "random":
		return randomBoxSet(r, max(a.dims, 1))
	}
	var boxes []Box
	for _, x := range a.boxes {
		y := NewBox(x.Min, x.Max)
		k := r.Intn(len(x.Min))
		for d := range y.Min {
			switch rel {
			case "contained":
				y.Min[d] += r.Intn(x.Max[d] - x.Min[d])
				y.Max[d] = y.Min[d] + 1 + r.Intn(x.Max[d]-y.Min[d])
			case "containing":
				y.Min[d] -= r.Intn(3)
				y.Max[d] += r.Intn(3)
			case "touching":
				if d == k {
					y.Min[d], y.Max[d] = x.Max[d], x.Max[d]+1+r.Intn(3)
				}
			case "disjoint":
				if d == k {
					y.Min[d] += 100
					y.Max[d] += 100
				}
			}
		}
		boxes = append(boxes, y)
	}
	return NewBoxSet(boxes...)
}

// TestBoxSetAgainstGroundTruth property-checks all operations against
// explicit point enumeration in 1 to 3 dimensions: random pairs, and
// pairs in each of boxRelations. No operation changes an operand —
// whose String is taken before and after every operation, on results
// too, which may share storage with their operands.
func TestBoxSetAgainstGroundTruth(t *testing.T) {
	f := func(p boxPair) bool {
		ra, rb := boxRef(p.A), boxRef(p.B)
		return boxRef(p.A.Union(p.B)).Equal(ra.Union(rb)) &&
			boxRef(p.A.Intersect(p.B)).Equal(ra.Intersect(rb)) &&
			boxRef(p.A.Difference(p.B)).Equal(ra.Difference(rb)) &&
			p.A.Size() == ra.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	ops := map[string]func(a, b BoxSet) BoxSet{
		"∪": BoxSet.Union, "∩": BoxSet.Intersect, "∖": BoxSet.Difference,
	}
	refs := map[string]func(a, b ElemSet[string]) ElemSet[string]{
		"∪": ElemSet[string].Union, "∩": ElemSet[string].Intersect, "∖": ElemSet[string].Difference,
	}
	r := rand.New(rand.NewSource(25))
	for dims := 1; dims <= 3; dims++ {
		for _, rel := range boxRelations {
			for range 100 {
				a := randomBoxSet(r, dims)
				b := relatedBoxSet(r, a, rel)
				sets := []BoxSet{a, b}
				// Every result is combined again with both operands.
				for name, op := range ops {
					for _, pair := range [][2]BoxSet{{a, b}, {b, a}} {
						x, y := pair[0], pair[1]
						before := x.String() + " " + y.String()
						z := op(x, y)
						if after := x.String() + " " + y.String(); after != before {
							t.Fatalf("%d-d %s: %s changed its operands: %s -> %s", dims, rel, name, before, after)
						}
						if want := refs[name](boxRef(x), boxRef(y)); !boxRef(z).Equal(want) {
							t.Fatalf("%d-d %s: %v %s %v = %v, want %v", dims, rel, x, name, y, z, want)
						}
						sets = append(sets, z)
					}
				}
				snap := make([]string, len(sets))
				for i, s := range sets {
					snap[i] = s.String()
				}
				for _, z := range sets[2:] {
					for _, op := range ops {
						op(z, a)
						op(a, z)
						op(z, b)
					}
				}
				for i, s := range sets {
					if s.String() != snap[i] {
						t.Fatalf("%d-d %s: set %d changed from %s to %s", dims, rel, i, snap[i], s)
					}
				}
				if !a.Equal(relatedBoxSet(r, a, "identical")) {
					t.Fatalf("%d-d: %v rebuilt is not Equal to itself", dims, a)
				}
			}
		}
	}
}

// randomSpans returns a 1-d BoxSet — the region of an array or a
// map's buckets — of up to eight half-open intervals within [-20, 60),
// often adjacent or overlapping, and the integers it holds.
func randomSpans(r *rand.Rand) (BoxSet, ElemSet[int]) {
	var boxes []Box
	var elems []int
	for range r.Intn(9) {
		lo := r.Intn(70) - 20
		hi := lo + r.Intn(11)
		boxes = append(boxes, NewBox(Point{lo}, Point{hi}))
		for i := lo; i < hi; i++ {
			elems = append(elems, i)
		}
	}
	return NewBoxSet(boxes...), NewElemSet(elems...)
}

// intRef converts a 1-d BoxSet to the integers it holds.
func intRef(s BoxSet) ElemSet[int] {
	var elems []int
	s.ForEachPoint(func(p Point) { elems = append(elems, p[0]) })
	return NewElemSet(elems...)
}

// TestIntervalSetAgainstGroundTruth checks 1-d BoxSets, the interval
// sets of arrays and maps, against integer sets: the set built, every
// operation, Size, Contains at each index around it, and Equal — of
// two random sets, and of a set and its rebuild from single indices.
func TestIntervalSetAgainstGroundTruth(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for range 500 {
		a, ra := randomSpans(r)
		b, rb := randomSpans(r)
		if !intRef(a).Equal(ra) {
			t.Fatalf("%v holds %v, want %v", a, intRef(a), ra)
		}
		for _, c := range []struct {
			op   string
			got  BoxSet
			want ElemSet[int]
		}{
			{"∪", a.Union(b), ra.Union(rb)},
			{"∩", a.Intersect(b), ra.Intersect(rb)},
			{"∖", a.Difference(b), ra.Difference(rb)},
		} {
			if !intRef(c.got).Equal(c.want) {
				t.Fatalf("%v %s %v = %v, want %v", a, c.op, b, c.got, c.want)
			}
			if c.got.Size() != c.want.Size() {
				t.Fatalf("%v %s %v: Size %d, want %d", a, c.op, b, c.got.Size(), c.want.Size())
			}
			for i := -25; i < 75; i++ {
				if c.got.Contains(Point{i}) != c.want.Contains(i) {
					t.Fatalf("%v %s %v: Contains(%d) = %v", a, c.op, b, i, !c.want.Contains(i))
				}
			}
		}
		if a.Equal(b) != ra.Equal(rb) {
			t.Fatalf("%v Equal %v = %v, want %v", a, b, a.Equal(b), ra.Equal(rb))
		}
		var units []Box
		ra.ForEach(func(i int) { units = append(units, NewBox(Point{i}, Point{i + 1})) })
		if !a.Equal(NewBoxSet(units...)) {
			t.Fatalf("%v is not Equal to its rebuild from single indices", a)
		}
	}
}

// TestBoxSetAlgebraAllocatesOnlyItsAnswer pins the short cuts: an
// operand that is the answer costs nothing, and a covered intersection
// at most the slice of its boxes.
func TestBoxSetAlgebraAllocatesOnlyItsAnswer(t *testing.T) {
	row := func(x int) BoxSet { return BoxFromTo(Point{x, 0}, Point{x + 1, 64}) }
	field := BoxFromTo(Point{0, 0}, Point{32, 64})
	halo := row(31).Union(row(32)) // one row inside field, one outside
	inner := halo.Intersect(field)
	far := row(40).Union(row(50))
	rows := row(3).Union(row(7)).Union(row(40))
	r5 := row(5)
	for _, c := range []struct {
		name       string
		fn         func() BoxSet
		want, same BoxSet // same: the operand the answer is, if any
		max        float64
	}{
		{"difference by a disjoint set", func() BoxSet { return field.Difference(far) }, field, field, 0},
		{"difference by a covering set", func() BoxSet { return r5.Difference(field) }, BoxSet{}, BoxSet{}, 0},
		{"intersection with a covered set", func() BoxSet { return field.Intersect(inner) }, row(31), inner, 0},
		{"intersection with a covering set", func() BoxSet { return inner.Intersect(field) }, row(31), inner, 0},
		{"intersection with a disjoint set", func() BoxSet { return field.Intersect(far) }, BoxSet{}, BoxSet{}, 0},
		{"covered intersection", func() BoxSet { return field.Intersect(rows) }, row(3).Union(row(7)), BoxSet{}, 1},
		{"union with a covered set", func() BoxSet { return field.Union(r5) }, field, field, 0},
		{"union with the empty set", func() BoxSet { return (BoxSet{}).Union(far) }, far, far, 0},
	} {
		got := c.fn()
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
		if !c.same.IsEmpty() && !got.Identical(c.same) {
			t.Errorf("%s: not the operand %v itself", c.name, c.same)
		}
		if n := testing.AllocsPerRun(100, func() { c.fn() }); n > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.name, n, c.max)
		}
	}
}

func TestBoxSetAlgebraicLaws(t *testing.T) {
	f := func(p boxPair) bool {
		a, b := p.A, p.B
		union := a.Union(b)
		inter := a.Intersect(b)
		return union.Equal(b.Union(a)) &&
			inter.Equal(b.Intersect(a)) &&
			a.Difference(b).Intersect(b).IsEmpty() &&
			a.Difference(b).Union(inter).Equal(a) &&
			union.Size() == a.Size()+b.Size()-inter.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxSetDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixing dimensionalities must panic")
		}
	}()
	NewBoxSet(NewBox(Point{0}, Point{1}), NewBox(Point{0, 0}, Point{1, 1}))
}

func ExampleBoxSet() {
	// The box of elements {e(i,j) | 10 <= i,j < 20} of Example 2.2.
	r := BoxFromTo(Point{10, 10}, Point{20, 20})
	fmt.Println(r.Size())
	// Output: 100
}
