package region

import (
	"testing"
)

var _ Region[ElemSet[int]] = ElemSet[int]{}
var _ Region[BoxSet] = BoxSet{}
var _ Region[TreeRegion] = TreeRegion{}
var _ Region[BlockedTreeRegion] = BlockedTreeRegion{}

func TestElemSetOps(t *testing.T) {
	a := NewElemSet(1, 2, 3, 4)
	b := NewElemSet(3, 4, 5)

	if got := a.Union(b); got.Size() != 5 {
		t.Fatalf("union size = %d, want 5", got.Size())
	}
	if got := a.Intersect(b); got.Size() != 2 || !got.Contains(3) || !got.Contains(4) {
		t.Fatalf("intersect wrong: %v", got)
	}
	if got := a.Difference(b); got.Size() != 2 || !got.Contains(1) || !got.Contains(2) {
		t.Fatalf("difference wrong: %v", got)
	}
	if !a.Difference(a).IsEmpty() {
		t.Fatal("self difference must be empty")
	}
	if !a.Equal(NewElemSet(4, 3, 2, 1)) {
		t.Fatal("order must not matter for equality")
	}
	if a.Equal(b) {
		t.Fatal("different sets reported equal")
	}
}

func TestElemSetZeroValue(t *testing.T) {
	var zero ElemSet[string]
	if !zero.IsEmpty() || zero.Size() != 0 || zero.Contains("x") {
		t.Fatal("zero value must behave as empty set")
	}
	if got := zero.Union(NewElemSet("a")); got.Size() != 1 {
		t.Fatal("union with zero value broken")
	}
	if !zero.Equal(NewElemSet[string]()) {
		t.Fatal("empty sets must be equal")
	}
}

func TestElemSetForEachAndElems(t *testing.T) {
	s := NewElemSet(10, 20, 30)
	sum := 0
	s.ForEach(func(e int) { sum += e })
	if sum != 60 {
		t.Fatalf("ForEach sum = %d, want 60", sum)
	}
	if got := len(s.Elems()); got != 3 {
		t.Fatalf("Elems len = %d, want 3", got)
	}
}

func TestElemSetString(t *testing.T) {
	s := NewElemSet(2, 1)
	if got := s.String(); got != "{1 2}" {
		t.Fatalf("String = %q", got)
	}
}
