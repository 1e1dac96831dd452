// Package tpc implements the two-point correlation benchmark of the
// paper's evaluation (Section 4, after Gray & Moore): given a set of
// points in 7-d space, count for each query point the number of
// points within a given radius, via a pruned kd-tree traversal.
//
// The kd-tree is a complete binary tree data item (Fig. 4b/4c): inner
// nodes carry a splitting plane, tight bounding box and subtree
// count; leaves carry point buckets. One kernel serves every version:
// BuildTree splits each level at the median it finds by an in-place
// selection (selectNth), and CountVisit traverses whatever storage its
// node accessor hands out — the flat tree's nodes, or a fragment's
// payload slots (dataitem.TreeFragment.Ref) — without copying a node.
// The AllScale version distributes
// the tree in blocked regions (Fig. 4c): the root block is replicated
// on every locality, the depth-h subtree blocks are spread across
// localities; each query spawns per-block tasks that Algorithm 2
// routes to the block owners — the fine-grained task forwarding whose
// communication cost dominates TPC at scale in the paper. The MPI
// reference aggregates whole query batches per message instead.
package tpc

import (
	"math"

	"allscale/internal/region"
)

// Dims is the dimensionality of the point space.
const Dims = 7

// Point7 is a point in 7-d space.
type Point7 [Dims]float64

// Params configures one TPC run.
type Params struct {
	// NumPoints is the number of data points.
	NumPoints int
	// Height is the number of kd-tree levels.
	Height int
	// BlockHeight is the depth of the replicated root block (Fig. 4c);
	// the tree decomposes into 2^BlockHeight distributable subtrees.
	BlockHeight int
	// Radius is the correlation radius.
	Radius float64
	// NumQueries is the number of query points.
	NumQueries int
	// Seed determinizes points and queries.
	Seed int64
	// Batch is the query-aggregation factor of the MPI version.
	Batch int
}

// KDNode is one node of the kd-tree item. Inner nodes carry the
// splitting plane; leaves carry their point bucket. All nodes carry
// the tight bounding box and point count of their subtree, enabling
// pruning and subtree-inclusion shortcuts.
type KDNode struct {
	Lo, Hi   Point7 // tight bounding box of the subtree's points
	Count    int64  // points in the subtree
	SplitDim int
	SplitVal float64
	Points   []Point7 // leaf bucket (empty for inner nodes)
}

// GeneratePoints returns the deterministic point set in [0,100)^7.
func GeneratePoints(n int, seed int64) []Point7 {
	pts := make([]Point7, n)
	state := uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%(1<<24)) / (1 << 24) * 100
	}
	for i := range pts {
		for d := 0; d < Dims; d++ {
			pts[i][d] = next()
		}
	}
	return pts
}

// GenerateQueries returns deterministic query points.
func GenerateQueries(n int, seed int64) []Point7 {
	return GeneratePoints(n, seed^0x5bf03635)
}

// Tree is the flat, heap-indexed kd-tree (node id 1 at index 0).
type Tree struct {
	Height int
	Nodes  []KDNode
}

// BuildTree constructs the balanced kd-tree of the given height by
// recursive median splits along the widest bounding-box dimension. A
// level partitions its points around the median in place (selectNth),
// so it costs O(n) and the tree O(n·height); which of several points
// equal on the split dimension land left of the plane is the
// selection's choice, fixed for a given point order — the construction
// is deterministic, and every count a query can observe is the same
// for any such choice. points is not modified.
func BuildTree(points []Point7, height int) *Tree {
	t := &Tree{Height: height, Nodes: make([]KDNode, (1<<uint(height))-1)}
	pts := append([]Point7(nil), points...)
	t.build(region.Root, pts, 1)
	return t
}

func (t *Tree) build(id region.NodeID, pts []Point7, level int) {
	node := &t.Nodes[id-1]
	node.Count = int64(len(pts))
	node.Lo, node.Hi = bbox(pts)
	if level == t.Height {
		node.Points = pts
		return
	}
	dim := widestDim(node.Lo, node.Hi)
	mid := len(pts) / 2
	node.SplitDim = dim
	if len(pts) > 0 {
		selectNth(pts, mid, dim)
		node.SplitVal = pts[mid][dim]
	}
	t.build(id.Left(), pts[:mid], level+1)
	t.build(id.Right(), pts[mid:], level+1)
}

// selectNth reorders pts so that pts[k] is the element a sort by
// coordinate dim would put there, nothing before it is larger and
// nothing after it smaller (0 <= k < len(pts)). It is a quickselect:
// the pivot is the median of the range's first, middle and last
// element, the partition stops on elements equal to the pivot — so a
// run of ties splits evenly instead of degenerating — and a range of
// a dozen elements or fewer is insertion-sorted. No randomness: the
// same input order gives the same output order.
func selectNth(pts []Point7, k, dim int) {
	lo, hi := 0, len(pts)-1 // the range still holding index k, inclusive
	for hi-lo >= 12 {
		a, b, c := pts[lo][dim], pts[lo+(hi-lo)/2][dim], pts[hi][dim]
		if a > b {
			a, b = b, a
		}
		pivot := min(max(a, c), b) // median of the three, present in the range
		// The pivot value occurs in pts[lo..hi], which bounds both scans
		// on the first pass; afterwards a swapped element bounds each.
		i, j := lo, hi
		for i <= j {
			for pts[i][dim] < pivot {
				i++
			}
			for pts[j][dim] > pivot {
				j--
			}
			if i <= j {
				pts[i], pts[j] = pts[j], pts[i]
				i++
				j--
			}
		}
		// pts[lo..j] <= pivot <= pts[i..hi]; anything between equals it.
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && pts[j][dim] < pts[j-1][dim]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

// Node returns the node with the given heap id.
func (t *Tree) Node(id region.NodeID) *KDNode { return &t.Nodes[id-1] }

func bbox(pts []Point7) (lo, hi Point7) {
	for d := 0; d < Dims; d++ {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	for _, p := range pts {
		for d := 0; d < Dims; d++ {
			if p[d] < lo[d] {
				lo[d] = p[d]
			}
			if p[d] > hi[d] {
				hi[d] = p[d]
			}
		}
	}
	return lo, hi
}

func widestDim(lo, hi Point7) int {
	best, extent := 0, -1.0
	for d := 0; d < Dims; d++ {
		if e := hi[d] - lo[d]; e > extent {
			best, extent = d, e
		}
	}
	return best
}

// dist2 returns the squared Euclidean distance.
func dist2(a, b *Point7) float64 {
	var s float64
	for d := 0; d < Dims; d++ {
		v := a[d] - b[d]
		s += v * v
	}
	return s
}

// minDist2 returns the squared distance from q to the box [lo, hi].
func minDist2(q, lo, hi *Point7) float64 {
	var s float64
	for d := 0; d < Dims; d++ {
		if q[d] < lo[d] {
			v := lo[d] - q[d]
			s += v * v
		} else if q[d] > hi[d] {
			v := q[d] - hi[d]
			s += v * v
		}
	}
	return s
}

// maxDist2 returns the squared distance from q to the farthest corner
// of the box [lo, hi].
func maxDist2(q, lo, hi *Point7) float64 {
	var s float64
	for d := 0; d < Dims; d++ {
		a, b := math.Abs(q[d]-lo[d]), math.Abs(q[d]-hi[d])
		if b > a {
			a = b
		}
		s += a * a
	}
	return s
}

// BruteForceCount is the O(n) reference: points within radius r of q.
func BruteForceCount(points []Point7, q Point7, r float64) int64 {
	var count int64
	r2 := r * r
	for i := range points {
		if dist2(&points[i], &q) <= r2 {
			count++
		}
	}
	return count
}

// CountVisit performs the pruned traversal from node id using the
// node accessor (which may be backed by a flat tree, a fragment, or a
// remote boundary callback). stop reports subtree roots where the
// traversal must not descend further locally; for those, onBoundary
// is invoked and its result added (the AllScale version spawns remote
// tasks there).
func CountVisit(
	node func(region.NodeID) *KDNode,
	id region.NodeID,
	level, height int,
	q Point7, r float64,
	stop func(id region.NodeID, level int) bool,
	onBoundary func(id region.NodeID) int64,
) int64 {
	v := visit{node: node, height: height, q: q, r2: r * r, stop: stop, onBoundary: onBoundary}
	return v.count(id, level)
}

// visit is one traversal's fixed arguments: the kernel reads the query
// point and the nodes where they are, and squares the radius once.
type visit struct {
	node       func(region.NodeID) *KDNode
	height     int
	q          Point7
	r2         float64
	stop       func(id region.NodeID, level int) bool
	onBoundary func(id region.NodeID) int64
}

func (v *visit) count(id region.NodeID, level int) int64 {
	if v.stop != nil && v.stop(id, level) {
		// Boundary: the node lives in a region this visitor must not
		// touch; the boundary callback (e.g. a remote task at the
		// owner) performs the pruning checks instead.
		return v.onBoundary(id)
	}
	n := v.node(id)
	if n.Count == 0 {
		return 0
	}
	if minDist2(&v.q, &n.Lo, &n.Hi) > v.r2 {
		return 0 // prune: no point can be in range
	}
	if maxDist2(&v.q, &n.Lo, &n.Hi) <= v.r2 {
		return n.Count // inclusion: every point is in range
	}
	if level == v.height {
		var count int64
		for i := range n.Points {
			if dist2(&n.Points[i], &v.q) <= v.r2 {
				count++
			}
		}
		return count
	}
	return v.count(id.Left(), level+1) + v.count(id.Right(), level+1)
}

// CountSequential answers one query on a flat tree.
func (t *Tree) CountSequential(q Point7, r float64) int64 {
	return CountVisit(t.Node, region.Root, 1, t.Height, q, r, nil, nil)
}

// RunSequential answers all queries of the parameter set on one flat
// tree, returning per-query counts.
func RunSequential(p Params) []int64 {
	points := GeneratePoints(p.NumPoints, p.Seed)
	tree := BuildTree(points, p.Height)
	queries := GenerateQueries(p.NumQueries, p.Seed)
	out := make([]int64, len(queries))
	for i, q := range queries {
		out[i] = tree.CountSequential(q, p.Radius)
	}
	return out
}
