package region

import (
	"fmt"
	"math/bits"
	"strings"
)

// BlockedTreeRegion is the coarse-grained tree region scheme of
// Fig. 4c: the overall tree of height H is divided into one root tree
// of height h and 2^h subtrees of height H-h. A bit mask of length
// 2^h + 1 models regions — bit 0 selects the root tree (all nodes at
// depth < h), bit i (1 ≤ i ≤ 2^h) selects the i-th depth-h subtree.
//
// The scheme is much more space- and time-efficient than TreeRegion
// but offers less flexible distribution options: nodes can only be
// assigned to fragments in whole blocks.
//
// Two regions combine only if they agree on both the total height and
// the blocking height h. The zero value is an empty region that
// combines with any geometry.
type BlockedTreeRegion struct {
	height int // total number of tree levels H
	block  int // root tree height h
	mask   []uint64
}

var _ Region[BlockedTreeRegion] = BlockedTreeRegion{}

// NewBlockedTreeRegion returns an empty region over a tree with the
// given total number of levels and blocking height. It panics when
// block is not in (0, height].
func NewBlockedTreeRegion(height, block int) BlockedTreeRegion {
	if block <= 0 || block > height {
		panic(fmt.Sprintf("region: invalid blocking height %d for tree height %d", block, height))
	}
	nbits := (1 << uint(block)) + 1
	return BlockedTreeRegion{height: height, block: block, mask: make([]uint64, (nbits+63)/64)}
}

// FullBlockedTreeRegion returns the region covering the whole tree.
func FullBlockedTreeRegion(height, block int) BlockedTreeRegion {
	r := NewBlockedTreeRegion(height, block)
	for i := 0; i < r.Blocks(); i++ {
		r = r.WithBlock(i)
	}
	return r
}

// Blocks returns the number of selectable blocks, 2^h + 1.
func (r BlockedTreeRegion) Blocks() int {
	if r.block == 0 {
		return 0
	}
	return (1 << uint(r.block)) + 1
}

// WithBlock returns a copy of the region with block i selected.
// Block 0 is the root tree; block i ≥ 1 is the subtree rooted at heap
// node 2^h + i - 1.
func (r BlockedTreeRegion) WithBlock(i int) BlockedTreeRegion {
	if i < 0 || i >= r.Blocks() {
		panic(fmt.Sprintf("region: block %d out of range [0,%d)", i, r.Blocks()))
	}
	out := r.cloneMask()
	out.mask[i/64] |= 1 << uint(i%64)
	return out
}

// HasBlock reports whether block i is selected.
func (r BlockedTreeRegion) HasBlock(i int) bool {
	if r.block == 0 || i < 0 || i >= r.Blocks() {
		return false
	}
	return r.mask[i/64]&(1<<uint(i%64)) != 0
}

// BlockRoot returns the heap NodeID of the root of block i, and the
// number of levels of that block. Block 0 is the root tree.
func (r BlockedTreeRegion) BlockRoot(i int) (NodeID, int) {
	if i == 0 {
		return Root, r.block
	}
	return NodeID(uint64(1)<<uint(r.block) + uint64(i-1)), r.height - r.block
}

// BlockOf returns the block index containing tree node id, or -1 when
// the node is outside the tree.
func (r BlockedTreeRegion) BlockOf(id NodeID) int {
	if !id.IsValid() || id.Depth() >= r.height {
		return -1
	}
	d := id.Depth()
	if d < r.block {
		return 0
	}
	ancestor := id >> uint(d-r.block)
	return int(uint64(ancestor)-(1<<uint(r.block))) + 1
}

func (r BlockedTreeRegion) cloneMask() BlockedTreeRegion {
	out := r
	out.mask = make([]uint64, len(r.mask))
	copy(out.mask, r.mask)
	return out
}

// compatible aligns geometries: a zero-value empty region adopts the
// other operand's geometry.
func (r BlockedTreeRegion) compatible(o BlockedTreeRegion) (BlockedTreeRegion, BlockedTreeRegion) {
	if r.block == 0 && o.block == 0 {
		return r, o // both zero values; all ops over empty masks stay empty
	}
	if r.block == 0 {
		r = NewBlockedTreeRegion(o.height, o.block)
	}
	if o.block == 0 {
		o = NewBlockedTreeRegion(r.height, r.block)
	}
	if r.height != o.height || r.block != o.block {
		panic(fmt.Sprintf("region: combining blocked tree regions of geometry (%d,%d) and (%d,%d)",
			r.height, r.block, o.height, o.block))
	}
	return r, o
}

// Union returns the set union of r and o.
func (r BlockedTreeRegion) Union(o BlockedTreeRegion) BlockedTreeRegion {
	r, o = r.compatible(o)
	out := r.cloneMask()
	for i := range out.mask {
		out.mask[i] |= o.mask[i]
	}
	return out
}

// Intersect returns the set intersection of r and o.
func (r BlockedTreeRegion) Intersect(o BlockedTreeRegion) BlockedTreeRegion {
	r, o = r.compatible(o)
	out := r.cloneMask()
	for i := range out.mask {
		out.mask[i] &= o.mask[i]
	}
	return out
}

// Difference returns the blocks of r not in o.
func (r BlockedTreeRegion) Difference(o BlockedTreeRegion) BlockedTreeRegion {
	r, o = r.compatible(o)
	out := r.cloneMask()
	for i := range out.mask {
		out.mask[i] &^= o.mask[i]
	}
	return out
}

// IsEmpty reports whether the region contains no blocks.
func (r BlockedTreeRegion) IsEmpty() bool {
	for _, w := range r.mask {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports extensional equality.
func (r BlockedTreeRegion) Equal(o BlockedTreeRegion) bool {
	if r.IsEmpty() && o.IsEmpty() {
		return true
	}
	if r.height != o.height || r.block != o.block {
		return false
	}
	for i := range r.mask {
		if r.mask[i] != o.mask[i] {
			return false
		}
	}
	return true
}

// Size returns the number of tree nodes covered by the selected
// blocks.
func (r BlockedTreeRegion) Size() int64 {
	if r.block == 0 {
		return 0
	}
	var n int64
	rootSize := int64(1)<<uint(r.block) - 1
	subSize := int64(1)<<uint(r.height-r.block) - 1
	for i := 0; i < r.Blocks(); i++ {
		if r.HasBlock(i) {
			if i == 0 {
				n += rootSize
			} else {
				n += subSize
			}
		}
	}
	return n
}

// Contains reports whether tree node id is covered by the region.
func (r BlockedTreeRegion) Contains(id NodeID) bool {
	b := r.BlockOf(id)
	return b >= 0 && r.HasBlock(b)
}

// PopCount returns the number of selected blocks.
func (r BlockedTreeRegion) PopCount() int {
	n := 0
	for _, w := range r.mask {
		n += bits.OnesCount64(w)
	}
	return n
}

// ToTreeRegion converts the blocked region into the flexible
// representation over the same tree.
func (r BlockedTreeRegion) ToTreeRegion() TreeRegion {
	out := EmptyTreeRegion(r.height)
	if r.block == 0 {
		return out
	}
	if r.HasBlock(0) {
		root := FullTreeRegion(r.height)
		for i := 1; i <= 1<<uint(r.block); i++ {
			id, _ := r.BlockRoot(i)
			root = root.Difference(SubtreeRegion(r.height, id))
		}
		out = out.Union(root)
	}
	for i := 1; i < r.Blocks(); i++ {
		if r.HasBlock(i) {
			id, _ := r.BlockRoot(i)
			out = out.Union(SubtreeRegion(r.height, id))
		}
	}
	return out
}

func (r BlockedTreeRegion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "blocked{H=%d h=%d", r.height, r.block)
	for i := 0; i < r.Blocks(); i++ {
		if r.HasBlock(i) {
			fmt.Fprintf(&b, " b%d", i)
		}
	}
	b.WriteString("}")
	return b.String()
}
