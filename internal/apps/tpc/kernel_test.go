package tpc

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/region"
	"allscale/internal/runtime"
)

// kernelInputs are the point orders the selection and the build are
// checked on: what a quickselect can get wrong shows on ties, on
// presorted input and at the lengths around its insertion-sort cutoff.
func kernelInputs() map[string][]Point7 {
	quantised := func(n int, seed int64) []Point7 {
		pts := GeneratePoints(n, seed)
		for i := range pts {
			for d := range pts[i] {
				pts[i][d] = float64(int(pts[i][d]) / 25 * 25) // 0, 25, 50 or 75
			}
		}
		return pts
	}
	sorted := GeneratePoints(300, 13)
	slices.SortFunc(sorted, comparePoints)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	in := map[string][]Point7{
		"random":    GeneratePoints(1000, 11),
		"tie-heavy": quantised(700, 12),
		"all-equal": make([]Point7, 257),
		"sorted":    sorted,
		"reversed":  reversed,
	}
	for _, n := range []int{0, 1, 2, 3, 12, 13, 14} {
		in[fmt.Sprintf("random-%d", n)] = GeneratePoints(n, 14)
		in[fmt.Sprintf("tie-heavy-%d", n)] = quantised(n, 15)
	}
	return in
}

// comparePoints orders points lexicographically: a total order, so two
// slices hold the same multiset iff they are equal once sorted by it.
func comparePoints(a, b Point7) int { return slices.Compare(a[:], b[:]) }

func TestSelectNthAgainstFullSort(t *testing.T) {
	for name, in := range kernelInputs() {
		want := slices.Clone(in)
		slices.SortFunc(want, comparePoints)
		if len(in) == 0 {
			selectNth(slices.Clone(in), 0, 0) // nothing to select: must not panic
		}
		for _, dim := range []int{0, 3, Dims - 1} {
			byDim := slices.Clone(in)
			slices.SortFunc(byDim, func(a, b Point7) int { return cmp.Compare(a[dim], b[dim]) })
			for k := range in {
				pts := slices.Clone(in)
				selectNth(pts, k, dim)
				if pts[k][dim] != byDim[k][dim] {
					t.Fatalf("%s dim %d k %d: element %v, a sort puts %v there", name, dim, k, pts[k][dim], byDim[k][dim])
				}
				for i, p := range pts {
					if i < k && p[dim] > pts[k][dim] || i > k && p[dim] < pts[k][dim] {
						t.Fatalf("%s dim %d k %d: pts[%d] = %v on the wrong side of %v", name, dim, k, i, p[dim], pts[k][dim])
					}
				}
				slices.SortFunc(pts, comparePoints)
				if !slices.Equal(pts, want) {
					t.Fatalf("%s dim %d k %d: the selection changed the multiset", name, dim, k)
				}
			}
		}
	}
}

func TestBuildTreeInvariants(t *testing.T) {
	for name, in := range kernelInputs() {
		for height := 1; height <= 8; height++ {
			before := slices.Clone(in)
			tree := BuildTree(in, height)
			if !slices.Equal(in, before) {
				t.Fatalf("%s height %d: BuildTree reordered its argument", name, height)
			}
			if again := BuildTree(in, height); !reflect.DeepEqual(tree.Nodes, again.Nodes) {
				t.Fatalf("%s height %d: two builds of one point order differ", name, height)
			}
			// below[id] are the points of id's subtree, gathered from the
			// leaf buckets upwards.
			below := make(map[region.NodeID][]Point7)
			for id := region.NodeID(len(tree.Nodes)); id >= 1; id-- {
				n := tree.Node(id)
				if id.Depth() == height-1 {
					below[id] = n.Points
				} else {
					l, r := tree.Node(id.Left()), tree.Node(id.Right())
					if n.Count != l.Count+r.Count || len(n.Points) != 0 {
						t.Fatalf("%s height %d node %v: count %d, children %d + %d, bucket %d",
							name, height, id, n.Count, l.Count, r.Count, len(n.Points))
					}
					if l.Count != n.Count/2 {
						t.Fatalf("%s height %d node %v: %d of %d points left of the median", name, height, id, l.Count, n.Count)
					}
					for _, p := range below[id.Left()] {
						if p[n.SplitDim] > n.SplitVal {
							t.Fatalf("%s height %d node %v: left point %v beyond the plane %v", name, height, id, p[n.SplitDim], n.SplitVal)
						}
					}
					for _, p := range below[id.Right()] {
						if p[n.SplitDim] < n.SplitVal {
							t.Fatalf("%s height %d node %v: right point %v before the plane %v", name, height, id, p[n.SplitDim], n.SplitVal)
						}
					}
					below[id] = append(slices.Clone(below[id.Left()]), below[id.Right()]...)
				}
				if n.Count != int64(len(below[id])) {
					t.Fatalf("%s height %d node %v: count %d, subtree holds %d", name, height, id, n.Count, len(below[id]))
				}
				if lo, hi := bbox(below[id]); lo != n.Lo || hi != n.Hi {
					t.Fatalf("%s height %d node %v: box not tight", name, height, id)
				}
			}
			got := slices.Clone(below[region.Root])
			slices.SortFunc(got, comparePoints)
			slices.SortFunc(before, comparePoints)
			if !slices.Equal(got, before) {
				t.Fatalf("%s height %d: the leaves do not hold the input's points", name, height)
			}
		}
	}
}

// TestTieHeavyCountsMatchBruteForce is the check of the kernel that
// does not go through it twice: the harness's tpc oracles are
// RunSequential's own answers. RunSequential generates its points, so
// on the generated set it is compared directly; the tie-heavy set
// reaches the other two versions through the tree cache their loaders
// read, and the sequential traversal through the tree RunSequential
// would build.
func TestTieHeavyCountsMatchBruteForce(t *testing.T) {
	p := testParams()
	points, seq := GeneratePoints(p.NumPoints, p.Seed), RunSequential(p)
	for i, q := range GenerateQueries(p.NumQueries, p.Seed) {
		if want := BruteForceCount(points, q, p.Radius); seq[i] != want {
			t.Fatalf("RunSequential: query %d counted %d, brute force %d", i, seq[i], want)
		}
	}

	p.Seed = 0x71e5 // no other test's key
	p.NumPoints = 700
	ties := kernelInputs()["tie-heavy"]
	tree := BuildTree(ties, p.Height)
	treeCache.Store(cacheKey{n: p.NumPoints, height: p.Height, seed: p.Seed}, tree)
	defer treeCache.Delete(cacheKey{n: p.NumPoints, height: p.Height, seed: p.Seed})
	queries := GenerateQueries(p.NumQueries, p.Seed)
	// On the lattice itself a radius of 25·√2 puts points exactly on the
	// sphere and on the planes.
	queries[0], queries[1] = ties[0], Point7{25, 25, 25, 25, 25, 25, 25}
	for _, radius := range []float64{p.Radius, 25 * 1.4142135623730951, 25} {
		p.Radius = radius
		want := make([]int64, len(queries))
		for i, q := range queries {
			want[i] = BruteForceCount(ties, q, radius)
			if got := tree.CountSequential(q, radius); got != want[i] {
				t.Fatalf("sequential, radius %v: query %d counted %d, brute force %d", radius, i, got, want[i])
			}
		}
		sys := core.NewSystem(core.Config{Localities: 2})
		app := NewAllScale(sys, p)
		sys.Start()
		if err := app.Load(); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if got, err := app.Query(i%2, q); err != nil || got != want[i] {
				t.Fatalf("allscale, radius %v: query %d counted %d (%v), brute force %d", radius, i, got, err, want[i])
			}
		}
		sys.Close()
	}
	// RunMPI and RunAllScale answer the generated query stream.
	p.Radius = testParams().Radius
	queries = GenerateQueries(p.NumQueries, p.Seed)
	mpi, err := RunMPI(2, p)
	if err != nil {
		t.Fatal(err)
	}
	all, err := RunAllScale(2, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if want := BruteForceCount(ties, q, p.Radius); mpi[i] != want || all[i] != want {
			t.Fatalf("query %d: mpi %d, allscale %d, brute force %d", i, mpi[i], all[i], want)
		}
	}
}

// loadedFragment returns a fragment covering the whole tree of p,
// filled as the loaders fill it.
func loadedFragment(p Params) (*dataitem.TreeFragment[KDNode], *Tree) {
	tree := BuildTree(GeneratePoints(p.NumPoints, p.Seed), p.Height)
	typ := dataitem.NewTreeType[KDNode]("tpc.tree.test", p.Height)
	tf := typ.NewFragment().(*dataitem.TreeFragment[KDNode])
	if err := tf.Resize(typ.FullRegion()); err != nil {
		panic(err)
	}
	for id := region.NodeID(1); int(id) <= len(tree.Nodes); id++ {
		*tf.Ref(id) = *tree.Node(id)
	}
	return tf, tree
}

// TestSubTraversalAllocatesNothingPerNode: tpc.sub's traversal reads the
// fragment's own nodes; a copy per visited node was an allocation per
// visited node.
func TestSubTraversalAllocatesNothingPerNode(t *testing.T) {
	p := testParams()
	tf, tree := loadedFragment(p)
	q := GenerateQueries(1, p.Seed)[0]
	visited := 0
	want := CountVisit(func(id region.NodeID) *KDNode { visited++; return tree.Node(id) },
		2, 2, p.Height, q, p.Radius, nil, nil)
	if visited < 8 {
		t.Fatalf("the traversal visits %d nodes: too few to tell", visited)
	}
	var got int64
	allocs := testing.AllocsPerRun(50, func() {
		id := region.NodeID(2)
		got = CountVisit(tf.Ref, id, id.Depth()+1, p.Height, q, p.Radius, nil, nil)
	})
	if got != want {
		t.Fatalf("fragment traversal counted %d, flat tree %d", got, want)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations in a traversal of %d nodes, want 0", allocs, visited)
	}
}

// waitRecorder fulfils a promise only once somebody waits for it.
type waitRecorder struct {
	waited  bool
	fulfill func()
}

func (w *waitRecorder) HelpWait(*runtime.Future) { w.waited = true; w.fulfill() }

// TestQueryReturnsSpawnError: when a per-block task cannot be spawned,
// the query fails with that error — it used to drop the block and
// return the under-count with a nil error — and only after it has
// waited for the sub-task it did spawn.
func TestQueryReturnsSpawnError(t *testing.T) {
	p := testParams()
	sys := core.NewSystem(core.Config{Localities: 1})
	app := NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()
	tf, _ := loadedFragment(p)
	loc := sys.Locality(0)

	refused := errors.New("spawn refused")
	var first runtime.PromiseID
	helper := &waitRecorder{fulfill: func() { loc.FulfillRemote(first, int64(1), nil) }}
	spawns := 0
	spawn := func(kind string, args any, branch uint64) (*runtime.Future, error) {
		spawns++
		if spawns > 1 {
			return nil, refused
		}
		fut := new(runtime.Future)
		first = loc.NamePromise(fut)
		fut.SetWaitHelper(helper)
		return fut, nil
	}
	// A radius that reaches every block but swallows none.
	got, err := app.query(tf, queryArgs{Q: GenerateQueries(1, p.Seed)[0], R: p.Radius}, spawn)
	if spawns != 2 {
		t.Fatalf("%d spawns attempted, want the first, the refused one and none after it", spawns)
	}
	if !errors.Is(err, refused) {
		t.Fatalf("query returned (%d, %v), want the spawn error", got, err)
	}
	if !helper.waited || loc.PromisePending(first) {
		t.Fatal("the query returned without waiting for the sub-task it had spawned")
	}
}
