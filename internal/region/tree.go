package region

import (
	"fmt"
	"math/bits"
	"strings"
)

// NodeID identifies a node of a complete binary tree in heap
// numbering: the root is 1, the children of node i are 2i and 2i+1.
// The zero value is invalid.
type NodeID uint64

// Root is the NodeID of the tree root.
const Root NodeID = 1

// Left returns the left child of the node.
func (n NodeID) Left() NodeID { return n << 1 }

// Right returns the right child of the node.
func (n NodeID) Right() NodeID { return n<<1 | 1 }

// Parent returns the parent of the node; the root is its own parent.
func (n NodeID) Parent() NodeID {
	if n <= 1 {
		return Root
	}
	return n >> 1
}

// Depth returns the node's depth; the root has depth 0.
func (n NodeID) Depth() int { return bits.Len64(uint64(n)) - 1 }

// IsValid reports whether the NodeID denotes a node.
func (n NodeID) IsValid() bool { return n >= 1 }

// Contains reports whether node m lies in the subtree rooted at n.
func (n NodeID) Contains(m NodeID) bool {
	dn, dm := n.Depth(), m.Depth()
	if dm < dn {
		return false
	}
	return m>>(uint(dm-dn)) == n
}

func (n NodeID) String() string { return fmt.Sprintf("n%d", uint64(n)) }

// TreeRegion is the flexible binary-tree region scheme of Fig. 4b:
// regions are described through included subtrees with nested excluded
// subtrees, allowing arbitrary node distributions among fragments.
//
// Internally the region is held as a canonical shape trie over the
// node space of a complete binary tree with a fixed number of levels
// (the height). Each trie node is fully included, fully excluded, or
// mixed; in canonical form a mixed node never has two fully-included
// or two fully-excluded children while itself being collapsible.
//
// Operations require both operands to share the same height. The zero
// value is an empty region of height 0 that combines with any height.
type TreeRegion struct {
	height int // number of levels; a complete tree has 2^height - 1 nodes
	root   *shapeNode
}

var _ Region[TreeRegion] = TreeRegion{}

type shapeState uint8

const (
	shapeEmpty shapeState = iota
	shapeFull
	shapeMixed
)

type shapeNode struct {
	state shapeState
	// self records whether the trie node's own tree node is included.
	// Only meaningful for mixed nodes; full/empty imply it.
	self        bool
	left, right *shapeNode // non-nil iff state == shapeMixed and below leaf level
}

var (
	fullNode  = &shapeNode{state: shapeFull}
	emptyNode = &shapeNode{state: shapeEmpty}
)

// EmptyTreeRegion returns the empty region over a tree with the given
// number of levels.
func EmptyTreeRegion(height int) TreeRegion {
	return TreeRegion{height: height, root: emptyNode}
}

// FullTreeRegion returns the region covering every node of a tree
// with the given number of levels.
func FullTreeRegion(height int) TreeRegion {
	if height <= 0 {
		return TreeRegion{height: height, root: emptyNode}
	}
	return TreeRegion{height: height, root: fullNode}
}

// SubtreeRegion returns the region covering the whole subtree rooted
// at node n, clipped to a tree with the given number of levels.
func SubtreeRegion(height int, n NodeID) TreeRegion {
	if !n.IsValid() || n.Depth() >= height {
		return EmptyTreeRegion(height)
	}
	return TreeRegion{height: height, root: subtreePath(height, n)}
}

// subtreePath builds the trie marking exactly the subtree under n.
func subtreePath(height int, n NodeID) *shapeNode {
	d := n.Depth()
	node := fullNode
	// Walk from the subtree root back up to the global root, wrapping
	// in mixed nodes that exclude the sibling side.
	for level := d; level > 0; level-- {
		bit := (n >> uint(d-level)) & 1
		wrap := &shapeNode{state: shapeMixed, self: false}
		if bit == 0 {
			wrap.left, wrap.right = node, emptyNode
		} else {
			wrap.left, wrap.right = emptyNode, node
		}
		node = wrap
	}
	return node
}

// TreeRegionFromSubtrees builds a region as the union of the included
// subtrees minus the union of the excluded subtrees — the paper's
// include/exclude-list representation of Fig. 4b.
func TreeRegionFromSubtrees(height int, include, exclude []NodeID) TreeRegion {
	r := EmptyTreeRegion(height)
	for _, n := range include {
		r = r.Union(SubtreeRegion(height, n))
	}
	for _, n := range exclude {
		r = r.Difference(SubtreeRegion(height, n))
	}
	return r
}

// SingleNodeRegion returns the region containing only node n.
func SingleNodeRegion(height int, n NodeID) TreeRegion {
	r := SubtreeRegion(height, n)
	return r.Difference(SubtreeRegion(height, n.Left())).
		Difference(SubtreeRegion(height, n.Right()))
}

// Height returns the number of tree levels the region is defined over.
func (r TreeRegion) Height() int { return r.height }

func (r TreeRegion) node() *shapeNode {
	if r.root == nil {
		return emptyNode
	}
	return r.root
}

// checkCompatible aligns the heights of two regions: a zero-value
// (empty, height 0) region adopts the other operand's height.
func checkCompatible(a, b TreeRegion) (TreeRegion, TreeRegion) {
	if a.height == 0 && a.node().state == shapeEmpty {
		a.height = b.height
	}
	if b.height == 0 && b.node().state == shapeEmpty {
		b.height = a.height
	}
	if a.height != b.height {
		panic(fmt.Sprintf("region: combining tree regions of heights %d and %d", a.height, b.height))
	}
	return a, b
}

func canon(self bool, left, right *shapeNode) *shapeNode {
	if self && left.state == shapeFull && right.state == shapeFull {
		return fullNode
	}
	if !self && left.state == shapeEmpty && right.state == shapeEmpty {
		return emptyNode
	}
	return &shapeNode{state: shapeMixed, self: self, left: left, right: right}
}

// children returns the implicit children of a node, expanding full and
// empty nodes. levels is the number of levels remaining at this node.
func (n *shapeNode) childParts(levels int) (self bool, left, right *shapeNode) {
	switch n.state {
	case shapeFull:
		if levels <= 1 {
			return true, emptyNode, emptyNode
		}
		return true, fullNode, fullNode
	case shapeEmpty:
		return false, emptyNode, emptyNode
	default:
		return n.self, n.left, n.right
	}
}

// setOp names the operation combine applies node by node.
type setOp uint8

const (
	opUnion setOp = iota
	opIntersect
	opDifference
)

func (op setOp) apply(a, b bool) bool {
	switch op {
	case opUnion:
		return a || b
	case opIntersect:
		return a && b
	}
	return a && !b
}

// decided returns the result of op on a and b when one of them decides
// it alone — the operand that is the answer, or the empty node — and nil
// when both subtries have to be walked.
func (op setOp) decided(a, b *shapeNode) *shapeNode {
	switch op {
	case opUnion:
		if a.state == shapeFull || b.state == shapeEmpty {
			return a
		}
		if b.state == shapeFull || a.state == shapeEmpty {
			return b
		}
	case opIntersect:
		if a.state == shapeEmpty || b.state == shapeFull {
			return a
		}
		if b.state == shapeEmpty || a.state == shapeFull {
			return b
		}
	default:
		if a.state == shapeEmpty || b.state == shapeEmpty {
			return a
		}
		if b.state == shapeFull {
			return emptyNode
		}
	}
	return nil
}

// combine applies op to two tries. It allocates only the trie nodes its
// answer newly contains: a subtrie equal to an operand's — one decided
// by the other operand, or a mixed node whose children came back as
// they were — is the operand's, shared.
func combine(a, b *shapeNode, levels int, op setOp) *shapeNode {
	if levels <= 0 {
		return emptyNode
	}
	if n := op.decided(a, b); n != nil {
		return n
	}
	// A full node meets a mixed one (a full node below the leaf level
	// has full children); the leaf level holds no mixed nodes.
	as, al, ar := a.childParts(levels)
	bs, bl, br := b.childParts(levels)
	self := op.apply(as, bs)
	left, right := combine(al, bl, levels-1, op), combine(ar, br, levels-1, op)
	switch {
	case a.state == shapeMixed && self == a.self && left == al && right == ar:
		return a
	case b.state == shapeMixed && self == b.self && left == bl && right == br:
		return b
	}
	return canon(self, left, right)
}

// Union returns the set union of r and o.
func (r TreeRegion) Union(o TreeRegion) TreeRegion {
	r, o = checkCompatible(r, o)
	return TreeRegion{height: r.height, root: combine(r.node(), o.node(), r.height, opUnion)}
}

// Intersect returns the set intersection of r and o.
func (r TreeRegion) Intersect(o TreeRegion) TreeRegion {
	r, o = checkCompatible(r, o)
	return TreeRegion{height: r.height, root: combine(r.node(), o.node(), r.height, opIntersect)}
}

// Difference returns the nodes of r not in o.
func (r TreeRegion) Difference(o TreeRegion) TreeRegion {
	r, o = checkCompatible(r, o)
	return TreeRegion{height: r.height, root: combine(r.node(), o.node(), r.height, opDifference)}
}

// Identical reports whether r and o are one value — the same height and
// the same trie, as when an operation returned its operand. It answers
// from the representation; Equal compares the nodes.
func (r TreeRegion) Identical(o TreeRegion) bool {
	return r.height == o.height && r.node() == o.node()
}

// IsEmpty reports whether the region contains no nodes.
func (r TreeRegion) IsEmpty() bool { return r.node().state == shapeEmpty }

// Equal reports extensional equality.
func (r TreeRegion) Equal(o TreeRegion) bool {
	if (r.height != o.height) && !(r.IsEmpty() && o.IsEmpty()) {
		return false
	}
	return shapeEqual(r.node(), o.node(), r.height)
}

func shapeEqual(a, b *shapeNode, levels int) bool {
	if levels <= 0 {
		return true
	}
	if a.state != shapeMixed && b.state != shapeMixed {
		return a.state == b.state
	}
	as, al, ar := a.childParts(levels)
	bs, bl, br := b.childParts(levels)
	if as != bs {
		return false
	}
	if levels == 1 {
		return true
	}
	return shapeEqual(al, bl, levels-1) && shapeEqual(ar, br, levels-1)
}

// Size returns the number of nodes in the region.
func (r TreeRegion) Size() int64 { return shapeSize(r.node(), r.height) }

func shapeSize(n *shapeNode, levels int) int64 {
	if levels <= 0 {
		return 0
	}
	switch n.state {
	case shapeEmpty:
		return 0
	case shapeFull:
		return (1 << uint(levels)) - 1
	}
	var s int64
	if n.self {
		s = 1
	}
	return s + shapeSize(n.left, levels-1) + shapeSize(n.right, levels-1)
}

// Contains reports whether node id is in the region.
func (r TreeRegion) Contains(id NodeID) bool {
	if !id.IsValid() || id.Depth() >= r.height {
		return false
	}
	node := r.node()
	d := id.Depth()
	for level := 0; ; level++ {
		switch node.state {
		case shapeFull:
			return true
		case shapeEmpty:
			return false
		}
		if level == d {
			return node.self
		}
		if (id>>uint(d-level-1))&1 == 0 {
			node = node.left
		} else {
			node = node.right
		}
	}
}

// ForEachNode calls fn for every node in the region in ascending
// NodeID order within each subtree branch.
func (r TreeRegion) ForEachNode(fn func(NodeID)) {
	forEachShape(r.node(), Root, r.height, fn)
}

func forEachShape(n *shapeNode, id NodeID, levels int, fn func(NodeID)) {
	if levels <= 0 || n.state == shapeEmpty {
		return
	}
	if n.state == shapeFull {
		fn(id)
		forEachShape(fullNode, id.Left(), levels-1, fn)
		forEachShape(fullNode, id.Right(), levels-1, fn)
		return
	}
	if n.self {
		fn(id)
	}
	forEachShape(n.left, id.Left(), levels-1, fn)
	forEachShape(n.right, id.Right(), levels-1, fn)
}

// TreeOp is one step of a subtree-list description of a region:
// include (Add) or exclude (Add == false) the whole subtree rooted at
// Node. A region equals the sequential application of its ops to the
// empty region. This generalizes the two-level include/exclude lists
// of Fig. 4b: for regions of that shape the ops are exactly the
// included roots followed by their nested excluded roots.
type TreeOp struct {
	Add  bool
	Node NodeID
}

// Ops decomposes the region into an ordered subtree-operation list
// such that applying the ops in order to the empty region reproduces
// the region exactly. Included roots are maximal (as high as
// possible), matching the compact encoding of Fig. 4b.
func (r TreeRegion) Ops() []TreeOp {
	var ops []TreeOp
	collectOps(r.node(), Root, r.height, false, &ops)
	return ops
}

// ApplyTreeOps reconstructs a region from an ordered op list.
func ApplyTreeOps(height int, ops []TreeOp) TreeRegion {
	r := EmptyTreeRegion(height)
	for _, op := range ops {
		sub := SubtreeRegion(height, op.Node)
		if op.Add {
			r = r.Union(sub)
		} else {
			r = r.Difference(sub)
		}
	}
	return r
}

// collectOps walks the trie in pre-order; inside reports whether the
// current subtree is currently covered by the ops emitted so far.
// Pre-order emission makes the ordered semantics exact: an op for a
// node precedes all ops for its descendants.
func collectOps(n *shapeNode, id NodeID, levels int, inside bool, ops *[]TreeOp) {
	if levels <= 0 {
		return
	}
	switch n.state {
	case shapeFull:
		if !inside {
			*ops = append(*ops, TreeOp{Add: true, Node: id})
		}
		return
	case shapeEmpty:
		if inside {
			*ops = append(*ops, TreeOp{Add: false, Node: id})
		}
		return
	}
	if n.self && !inside {
		*ops = append(*ops, TreeOp{Add: true, Node: id})
		inside = true
	} else if !n.self && inside {
		*ops = append(*ops, TreeOp{Add: false, Node: id})
		inside = false
	}
	collectOps(n.left, id.Left(), levels-1, inside, ops)
	collectOps(n.right, id.Right(), levels-1, inside, ops)
}

func (r TreeRegion) String() string {
	var b strings.Builder
	b.WriteString("tree{h=")
	fmt.Fprint(&b, r.height)
	for _, op := range r.Ops() {
		if op.Add {
			b.WriteString(" +")
		} else {
			b.WriteString(" -")
		}
		fmt.Fprint(&b, uint64(op.Node))
	}
	b.WriteString("}")
	return b.String()
}
