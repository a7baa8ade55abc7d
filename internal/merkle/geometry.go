// Package merkle provides the geometry and node formats of the two
// integrity tree families in the paper:
//
//   - the general, non-parallelizable hash tree (Figure 2): 8-ary,
//     each 64-byte node holds eight 8-byte hashes of its children, the
//     leaves are the encryption counter blocks, and the root hash lives
//     on chip;
//   - the SGX-style parallelizable tree (Figure 3): 8-ary, each node is
//     a counter block of eight 56-bit nonces plus a 56-bit MAC computed
//     over the node's nonces and one nonce of its parent; the top node's
//     nonces live on chip.
//
// Both trees share the same shape, described by Geometry. The walk,
// verify, and update algorithms live in the memory controller
// (internal/memctrl) because they interleave with caching; this package
// supplies the pure structure plus a full-build helper used for memory
// initialization and for the Osiris whole-tree reconstruction baseline.
package merkle

import (
	"encoding/binary"
	"fmt"
)

// Arity is the tree fan-out: eight 64-bit hashes (or eight 56-bit
// nonces) per 64-byte node.
const Arity = 8

// BlockBytes is the node size.
const BlockBytes = 64

// Geometry describes an 8-ary tree over a given number of leaf blocks.
// Level 0 is the first level of tree nodes (the parents of the leaves);
// the highest level has exactly one node, the root node.
type Geometry struct {
	leaves  uint64
	counts  []uint64 // counts[l] = nodes at level l
	offsets []uint64 // flat node index of the first node of level l
	total   uint64
}

// NewGeometry builds the geometry for the given number of leaf blocks
// (counter blocks). It panics if leaves is zero.
func NewGeometry(leaves uint64) Geometry {
	if leaves == 0 {
		panic("merkle: geometry needs at least one leaf")
	}
	g := Geometry{leaves: leaves}
	n := (leaves + Arity - 1) / Arity
	for {
		g.offsets = append(g.offsets, g.total)
		g.counts = append(g.counts, n)
		g.total += n
		if n == 1 {
			break
		}
		n = (n + Arity - 1) / Arity
	}
	return g
}

// Leaves returns the number of leaf blocks the tree covers.
func (g *Geometry) Leaves() uint64 { return g.leaves }

// Levels returns the number of tree-node levels (excluding the leaves).
func (g *Geometry) Levels() int { return len(g.counts) }

// NodesAt returns the number of nodes at a level.
func (g *Geometry) NodesAt(level int) uint64 { return g.counts[level] }

// TotalNodes returns the total node count across all levels.
func (g *Geometry) TotalNodes() uint64 { return g.total }

// RootLevel returns the level of the single root node.
func (g *Geometry) RootLevel() int { return len(g.counts) - 1 }

// Flat maps (level, index) to the flat node index used as the tree
// region block index in NVM.
func (g *Geometry) Flat(level int, i uint64) uint64 {
	if level < 0 || level >= len(g.counts) || i >= g.counts[level] {
		panic(fmt.Sprintf("merkle: node (%d,%d) out of range", level, i))
	}
	return g.offsets[level] + i
}

// Unflat maps a flat node index back to (level, index).
func (g *Geometry) Unflat(flat uint64) (level int, i uint64) {
	if flat >= g.total {
		panic(fmt.Sprintf("merkle: flat index %d out of range", flat))
	}
	for l := len(g.offsets) - 1; l >= 0; l-- {
		if flat >= g.offsets[l] {
			return l, flat - g.offsets[l]
		}
	}
	panic("unreachable")
}

// LeafParent returns the level-0 node covering leaf block `leaf` and the
// slot (0..7) of the leaf within that node.
func (g *Geometry) LeafParent(leaf uint64) (node uint64, slot int) {
	if leaf >= g.leaves {
		panic(fmt.Sprintf("merkle: leaf %d out of range", leaf))
	}
	return leaf / Arity, int(leaf % Arity)
}

// Parent returns the node above (level, i) and the slot of (level, i)
// within it. It panics when called on the root.
func (g *Geometry) Parent(level int, i uint64) (plevel int, pi uint64, slot int) {
	if level >= g.RootLevel() {
		panic("merkle: root has no parent")
	}
	return level + 1, i / Arity, int(i % Arity)
}

// ChildrenOf returns the range of child indices of node (level, i): the
// children live at level-1 (or are leaves when level == 0) with indices
// [first, first+n).
func (g *Geometry) ChildrenOf(level int, i uint64) (first uint64, n int) {
	first = i * Arity
	var below uint64
	if level == 0 {
		below = g.leaves
	} else {
		below = g.counts[level-1]
	}
	if first >= below {
		panic(fmt.Sprintf("merkle: node (%d,%d) has no children", level, i))
	}
	n = Arity
	if first+uint64(n) > below {
		n = int(below - first)
	}
	return first, n
}

// NodeAddr returns the address label mixed into hashes/MACs for a tree
// node, domain-separated from counter-block addresses (level tag 0).
func NodeAddr(level int, i uint64) uint64 {
	return uint64(level+1)<<48 | i
}

// --- general tree node codec -------------------------------------------------

// GNode is a general-tree node: eight 64-bit child hashes.
type GNode [BlockBytes]byte

// Hash returns the child hash in a slot.
func (n *GNode) Hash(slot int) uint64 {
	return binary.LittleEndian.Uint64(n[slot*8:])
}

// SetHash stores a child hash in a slot.
func (n *GNode) SetHash(slot int, h uint64) {
	binary.LittleEndian.PutUint64(n[slot*8:], h)
}

// Hasher abstracts the engine operation the build helper needs.
type Hasher interface {
	ContentHash(node []byte) uint64
}

// BuildGeneral constructs the complete general tree bottom-up.
//
// readLeaf must return the 64-byte content of leaf block i; store is
// called once per tree node with its flat index and content. The
// returned value is the on-chip root hash (the hash of the root node).
// ops receives one count per block hashed, letting callers apply the
// paper's recovery-time accounting.
func BuildGeneral(g Geometry, h Hasher, readLeaf func(i uint64) [BlockBytes]byte, store func(flat uint64, node GNode), ops *uint64) uint64 {
	// Build level by level, keeping the just-built level in memory to
	// hash upward without re-reading stored nodes. Every block handed
	// to the Hasher is sliced from storage the build allocates once (the
	// leaf scratch, the level slices): slicing a per-iteration local
	// instead moves it to the heap, because the slice escapes through
	// the interface call — one allocation per block hashed.
	leaf := new([BlockBytes]byte)
	var prev []GNode
	for level := 0; level < g.Levels(); level++ {
		cur := make([]GNode, g.NodesAt(level))
		for i := range cur {
			first, n := g.ChildrenOf(level, uint64(i))
			node := &cur[i]
			for s := 0; s < n; s++ {
				if ops != nil {
					*ops++
				}
				var hv uint64
				if level == 0 {
					*leaf = readLeaf(first + uint64(s))
					hv = h.ContentHash(leaf[:])
				} else {
					hv = h.ContentHash(prev[first+uint64(s)][:])
				}
				node.SetHash(s, hv)
			}
			store(g.Flat(level, uint64(i)), *node)
		}
		prev = cur
	}
	if ops != nil {
		*ops++
	}
	return h.ContentHash(prev[0][:])
}
