package region

import "fmt"

// Subtree is a truncated subtree: the nodes under Root, Root included,
// less than Levels levels below it. Its nodes in heap order — Root, then
// each level left to right — are a dense array of Size slots, and Index
// maps a node to its slot, so a truncated subtree is to a tree what a box
// is to a grid.
type Subtree struct {
	Root   NodeID
	Levels int
}

// Size returns the number of nodes in the truncated subtree.
func (s Subtree) Size() int { return 1<<uint(s.Levels) - 1 }

// Contains reports whether node n lies in the truncated subtree.
func (s Subtree) Contains(n NodeID) bool {
	d := n.Depth() - s.Root.Depth()
	return d >= 0 && d < s.Levels && n>>uint(d) == s.Root
}

// Index returns the heap-order slot of node n, which must lie in s.
func (s Subtree) Index(n NodeID) int {
	d := uint(n.Depth() - s.Root.Depth())
	return 1<<d - 1 + int(n-s.Root<<d)
}

// Region returns the nodes of s that a tree of the given height has.
func (s Subtree) Region(height int) TreeRegion {
	levels := height - s.Root.Depth()
	if !s.Root.IsValid() || levels <= 0 || s.Levels <= 0 {
		return EmptyTreeRegion(height)
	}
	if s.Levels >= levels {
		return TreeRegion{height: height, root: subtreePath(s.Root, fullNode)}
	}
	top := emptyNode // the Levels levels of s, above the leaf level
	for range s.Levels {
		top = &shapeNode{state: shapeMixed, self: true, left: top, right: top}
	}
	return TreeRegion{height: height, root: subtreePath(s.Root, top)}
}

// Subtrees decomposes the region into the fewest disjoint truncated
// subtrees, in pre-order of their roots: a full subtree is one, and a
// node whose own node is included heads one that reaches as many of
// the levels full below it as pays — a root block over the subtrees
// below it is one, a tree with one node missing is the path to that
// node plus the siblings along it.
func (r TreeRegion) Subtrees() []Subtree {
	var out []Subtree
	appendSubtrees(&out, r.node(), Root, r.height)
	return out
}

func appendSubtrees(out *[]Subtree, n *shapeNode, id NodeID, levels int) {
	switch {
	case levels <= 0 || n.state == shapeEmpty:
		return
	case n.state == shapeFull:
		*out = append(*out, Subtree{Root: id, Levels: levels})
		return
	case !n.self:
		appendSubtrees(out, n.left, id.Left(), levels-1)
		appendSubtrees(out, n.right, id.Right(), levels-1)
		return
	}
	cost, best := subtreeCosts(n, levels), 1
	for j := 2; j < len(cost); j++ {
		if cost[j] <= cost[best] {
			best = j
		}
	}
	*out = append(*out, Subtree{Root: id, Levels: best})
	appendBelow(out, n, id, levels, best)
}

// appendBelow decomposes the parts of the subtrie n (at id) that lie
// depth levels below id.
func appendBelow(out *[]Subtree, n *shapeNode, id NodeID, levels, depth int) {
	if depth == 0 {
		appendSubtrees(out, n, id, levels)
		return
	}
	if levels <= 1 || n.state == shapeEmpty {
		return
	}
	_, l, r := n.childParts(levels)
	appendBelow(out, l, id.Left(), levels-1, depth-1)
	appendBelow(out, r, id.Right(), levels-1, depth-1)
}

// maxCost saturates the counts of subtreeCosts far below overflow.
const maxCost = 1 << 60

// subtreeCosts returns, for the subtrie n with levels levels, the
// number of truncated subtrees that decompose its nodes j levels below
// it and deeper, for j from 0 up to the number of levels in which n
// holds every node: cost[0] is the fewest for all of n, and a subtree
// rooted at n with j levels leaves cost[j] for the rest.
func subtreeCosts(n *shapeNode, levels int) []int64 {
	switch {
	case levels <= 0 || n.state == shapeEmpty:
		return []int64{0}
	case n.state == shapeFull:
		cost := make([]int64, levels+1)
		for j := range levels {
			cost[j] = 1 << uint(min(j, 60))
		}
		return cost
	case !n.self:
		l, r := subtreeCosts(n.left, levels-1), subtreeCosts(n.right, levels-1)
		return []int64{min(l[0]+r[0], maxCost)}
	}
	l, r := subtreeCosts(n.left, levels-1), subtreeCosts(n.right, levels-1)
	cost := make([]int64, 1+min(len(l), len(r)))
	cost[0] = maxCost
	for j := 1; j < len(cost); j++ {
		cost[j] = min(l[j-1]+r[j-1], maxCost)
		cost[0] = min(cost[0], 1+cost[j])
	}
	return cost
}

// TreeRegionOfNodes returns the region holding exactly the given nodes,
// built in one pass; it panics on a node a tree of the given height
// does not have.
func TreeRegionOfNodes(height int, nodes []NodeID) TreeRegion {
	if len(nodes) == 0 {
		return EmptyTreeRegion(height)
	}
	root := &shapeNode{state: shapeMixed}
	for _, n := range nodes {
		if !n.IsValid() || n.Depth() >= height {
			panic(fmt.Sprintf("region: node %v outside a tree of height %d", n, height))
		}
		at := root
		for s := n.Depth() - 1; s >= 0; s-- {
			next := &at.left
			if n>>uint(s)&1 == 1 {
				next = &at.right
			}
			if *next == nil {
				*next = &shapeNode{state: shapeMixed}
			}
			at = *next
		}
		at.self = true
	}
	return TreeRegion{height: height, root: settle(root, height)}
}

// settle makes canonical a trie of mixed nodes in which a missing child
// is empty.
func settle(n *shapeNode, levels int) *shapeNode {
	switch {
	case n == nil:
		return emptyNode
	case levels == 1: // the leaf level holds no mixed nodes
		if n.self {
			return fullNode
		}
		return emptyNode
	}
	n.left, n.right = settle(n.left, levels-1), settle(n.right, levels-1)
	switch {
	case n.self && n.left.state == shapeFull && n.right.state == shapeFull:
		return fullNode
	case !n.self && n.left.state == shapeEmpty && n.right.state == shapeEmpty:
		return emptyNode
	}
	return n
}
