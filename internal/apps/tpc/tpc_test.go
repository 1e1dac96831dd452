package tpc

import (
	"testing"

	"allscale/internal/core"
	"allscale/internal/region"
)

func testParams() Params {
	return Params{
		NumPoints:   512,
		Height:      6, // 32 leaves of ~16 points
		BlockHeight: 2, // 4 distributable blocks
		Radius:      60,
		NumQueries:  20,
		Seed:        7,
		Batch:       8,
	}
}

func TestGeneratePointsDeterministicAndInRange(t *testing.T) {
	a := GeneratePoints(100, 3)
	b := GeneratePoints(100, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("point generation not deterministic")
		}
		for d := 0; d < Dims; d++ {
			if a[i][d] < 0 || a[i][d] >= 100 {
				t.Fatalf("point %v outside [0,100)^7", a[i])
			}
		}
	}
	c := GeneratePoints(100, 4)
	if a[0] == c[0] {
		t.Fatal("seed has no effect")
	}
	if q := GenerateQueries(5, 3); q[0] == a[0] {
		t.Fatal("queries must differ from points")
	}
}

func TestBuildTreeStructure(t *testing.T) {
	p := testParams()
	points := GeneratePoints(p.NumPoints, p.Seed)
	tree := BuildTree(points, p.Height)
	if len(tree.Nodes) != (1<<p.Height)-1 {
		t.Fatalf("node count = %d", len(tree.Nodes))
	}
	root := tree.Node(region.Root)
	if root.Count != int64(p.NumPoints) {
		t.Fatalf("root count = %d", root.Count)
	}
	// Child counts sum to parent; bboxes nest; leaf buckets hold all
	// points.
	var totalLeaf int64
	for id := region.NodeID(1); id < region.NodeID(1)<<p.Height; id++ {
		n := tree.Node(id)
		if id.Depth() < p.Height-1 {
			l, r := tree.Node(id.Left()), tree.Node(id.Right())
			if l.Count+r.Count != n.Count {
				t.Fatalf("count mismatch at %v: %d + %d != %d", id, l.Count, r.Count, n.Count)
			}
			if len(n.Points) != 0 {
				t.Fatalf("inner node %v holds points", id)
			}
		} else {
			totalLeaf += int64(len(n.Points))
			if int64(len(n.Points)) != n.Count {
				t.Fatalf("leaf %v count mismatch", id)
			}
		}
		for _, pt := range n.Points {
			for d := 0; d < Dims; d++ {
				if pt[d] < n.Lo[d] || pt[d] > n.Hi[d] {
					t.Fatalf("point outside node bbox at %v", id)
				}
			}
		}
	}
	if totalLeaf != int64(p.NumPoints) {
		t.Fatalf("leaves hold %d points, want %d", totalLeaf, p.NumPoints)
	}
}

func TestSequentialMatchesBruteForce(t *testing.T) {
	p := testParams()
	points := GeneratePoints(p.NumPoints, p.Seed)
	tree := BuildTree(points, p.Height)
	for _, q := range GenerateQueries(p.NumQueries, p.Seed) {
		want := BruteForceCount(points, q, p.Radius)
		if got := tree.CountSequential(q, p.Radius); got != want {
			t.Fatalf("kd count = %d, brute force = %d", got, want)
		}
	}
}

func TestPruningBounds(t *testing.T) {
	lo := Point7{0, 0, 0, 0, 0, 0, 0}
	hi := Point7{10, 10, 10, 10, 10, 10, 10}
	inside := Point7{5, 5, 5, 5, 5, 5, 5}
	if minDist2(&inside, &lo, &hi) != 0 {
		t.Fatal("min dist of inside point must be 0")
	}
	outside := Point7{20, 5, 5, 5, 5, 5, 5}
	if got := minDist2(&outside, &lo, &hi); got != 100 {
		t.Fatalf("minDist2 = %v, want 100", got)
	}
	if maxDist2(&inside, &lo, &hi) <= minDist2(&inside, &lo, &hi) {
		t.Fatal("max dist must exceed min dist")
	}
}

func TestRadiusExtremes(t *testing.T) {
	p := testParams()
	points := GeneratePoints(p.NumPoints, p.Seed)
	tree := BuildTree(points, p.Height)
	q := GenerateQueries(1, p.Seed)[0]
	if got := tree.CountSequential(q, 0.0001); got != 0 {
		t.Fatalf("tiny radius count = %d", got)
	}
	// Radius covering the whole space counts every point (inclusion
	// shortcut path).
	if got := tree.CountSequential(q, 1e6); got != int64(p.NumPoints) {
		t.Fatalf("huge radius count = %d, want %d", got, p.NumPoints)
	}
}

func TestAllScaleMatchesSequential(t *testing.T) {
	p := testParams()
	want := RunSequential(p)
	// Workers 0 is the default pool size; with one worker a query that
	// waited for its per-block tasks without running them would hang.
	for _, workers := range []int{0, 1} {
		for _, localities := range []int{1, 2, 4} {
			got, err := runAllScale(core.Config{Localities: localities, Workers: workers}, p)
			if err != nil {
				t.Fatalf("localities=%d workers=%d: %v", localities, workers, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("localities=%d workers=%d: query %d = %d, want %d", localities, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMPIMatchesSequential(t *testing.T) {
	p := testParams()
	want := RunSequential(p)
	for _, ranks := range []int{1, 2, 3, 4} {
		got, err := RunMPI(ranks, p)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ranks=%d: query %d = %d, want %d", ranks, i, got[i], want[i])
			}
		}
	}
}

func TestBlockGeometry(t *testing.T) {
	p := testParams()
	if p.numBlocks() != 4 {
		t.Fatalf("blocks = %d", p.numBlocks())
	}
	// Block regions plus the root region partition the tree.
	total := p.rootRegion().T
	for b := 0; b < p.numBlocks(); b++ {
		blk := p.blockRegion(b).T
		if !total.Intersect(blk).IsEmpty() {
			t.Fatalf("block %d overlaps previous regions", b)
		}
		total = total.Union(blk)
	}
	if !total.Equal(region.FullTreeRegion(p.Height)) {
		t.Fatal("blocks + root do not cover the tree")
	}
	// Owners are monotone and within range.
	prev := 0
	for b := 0; b < p.numBlocks(); b++ {
		o := blockOwner(b, p.numBlocks(), 3)
		if o < prev || o >= 3 {
			t.Fatalf("owner(%d) = %d", b, o)
		}
		prev = o
	}
}
