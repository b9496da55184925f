package mtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// Entry is one slot of an M-tree node. In a leaf it holds an indexed
// object and its OID; in an internal node it holds a routing object, the
// covering radius of its subtree, and the child pointer. ParentDist is
// the precomputed distance between the entry's object and the routing
// object of the node (NaN in the root, whose region has no routing
// object).
type Entry struct {
	Object     metric.Object
	ParentDist float64
	// Leaf fields.
	OID uint64
	// Internal fields.
	Radius float64
	Child  pager.PageID
}

// node is an M-tree page in memory.
type node struct {
	id      pager.PageID
	leaf    bool
	entries []Entry
	// cols caches the columnar transpose of entries the traversal core
	// reads (see Tree.load). Query goroutines build it lazily; the
	// memory store drops it whenever the node is stored, which every
	// mutation does before a query can see the node again.
	cols atomic.Pointer[columns]
}

// transpose copies the node's entries into fresh columns, filling only
// the ones a node of its kind is read through.
func (n *node) transpose() *columns {
	k := len(n.entries)
	c := &columns{parentDist: make([]float64, k), objs: make([]metric.Object, k)}
	if n.leaf {
		c.oid = make([]uint64, k)
	} else {
		c.radius, c.child = make([]float64, k), make([]int32, k)
	}
	for i := range n.entries {
		e := &n.entries[i]
		c.parentDist[i], c.objs[i] = e.ParentDist, e.Object
		if n.leaf {
			c.oid[i] = e.OID
		} else {
			c.radius[i], c.child[i] = e.Radius, int32(e.Child)
		}
	}
	return c
}

// Page layout:
//
//	[0]    flags: bit0 = leaf
//	[1:3]  uint16 entry count
//	then per entry:
//	  float64 parentDist (NaN encoded as quiet NaN bits)
//	  leaf:     uint64 oid
//	  internal: float64 radius, uint32 child
//	  uint16 object length, object bytes
const nodeHeaderSize = 3

// Fixed per-entry overhead besides the encoded object: parentDist +
// oid for leaves; parentDist + radius + child + length prefix for
// internal entries. These constants are the single source of truth for
// entry sizing — encode, fits, and NodeCapacities all derive from them.
const (
	leafEntryOverhead     = 8 + 8 + 2
	internalEntryOverhead = 8 + 8 + 4 + 2
)

func leafEntrySize(codec ObjectCodec, o metric.Object) int {
	return leafEntryOverhead + codec.Size(o)
}

func internalEntrySize(codec ObjectCodec, o metric.Object) int {
	return internalEntryOverhead + codec.Size(o)
}

// NodeCapacities returns the maximum entries a node of the given page
// size holds for objects of the given encoded size — the leaf and
// internal fan-out bounds implied by the on-page layout. It is the one
// capacity formula shared by the tree itself (via fits) and by the
// stats-free planner (mcost.PlanIndex), so a page-layout change cannot
// silently drift the planner's tree-shape prediction away from what
// Build actually constructs. Note the capacities are in terms of the
// logical node payload: the paged store's per-page checksum lives
// outside it (see PhysPageSize).
func NodeCapacities(pageSize, objBytes int) (leafCap, internalCap int) {
	avail := pageSize - nodeHeaderSize
	if avail < 0 {
		return 0, 0
	}
	return avail / (leafEntryOverhead + objBytes), avail / (internalEntryOverhead + objBytes)
}

// entrySize returns the on-page size of e in a node of the given kind.
func entrySize(codec ObjectCodec, e Entry, leaf bool) int {
	if leaf {
		return leafEntrySize(codec, e.Object)
	}
	return internalEntrySize(codec, e.Object)
}

// bytes returns the serialized size of the node.
func (n *node) bytes(codec ObjectCodec) int {
	total := nodeHeaderSize
	for _, e := range n.entries {
		total += entrySize(codec, e, n.leaf)
	}
	return total
}

// fits reports whether adding e keeps the node within pageSize.
func (n *node) fits(codec ObjectCodec, e Entry, pageSize int) bool {
	return n.bytes(codec)+entrySize(codec, e, n.leaf) <= pageSize
}

// encode serializes the node into a fresh buffer.
func (n *node) encode(codec ObjectCodec) ([]byte, error) {
	if len(n.entries) > math.MaxUint16 {
		return nil, fmt.Errorf("mtree: node %d has %d entries, exceeds format limit", n.id, len(n.entries))
	}
	buf := make([]byte, nodeHeaderSize, n.bytes(codec))
	if n.leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
	for _, e := range n.entries {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.ParentDist))
		if n.leaf {
			buf = binary.LittleEndian.AppendUint64(buf, e.OID)
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Radius))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Child))
		}
		size := codec.Size(e.Object)
		if size > math.MaxUint16 {
			return nil, fmt.Errorf("mtree: object of %d bytes exceeds format limit", size)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(size))
		buf = codec.Append(buf, e.Object)
	}
	return buf, nil
}

// decodeNode parses a page into a node.
func decodeNode(id pager.PageID, buf []byte, codec ObjectCodec) (*node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, fmt.Errorf("mtree: page %d too short (%d bytes)", id, len(buf))
	}
	n := &node{id: id, leaf: buf[0]&1 == 1}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	pos := nodeHeaderSize
	need := func(k int) error {
		if pos+k > len(buf) {
			return fmt.Errorf("mtree: page %d truncated at offset %d", id, pos)
		}
		return nil
	}
	n.entries = make([]Entry, 0, count)
	for i := 0; i < count; i++ {
		var e Entry
		if err := need(8); err != nil {
			return nil, err
		}
		e.ParentDist = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
		pos += 8
		if n.leaf {
			if err := need(8); err != nil {
				return nil, err
			}
			e.OID = binary.LittleEndian.Uint64(buf[pos:])
			pos += 8
		} else {
			if err := need(12); err != nil {
				return nil, err
			}
			e.Radius = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
			pos += 8
			e.Child = pager.PageID(binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
		}
		if err := need(2); err != nil {
			return nil, err
		}
		objLen := int(binary.LittleEndian.Uint16(buf[pos:]))
		pos += 2
		if err := need(objLen); err != nil {
			return nil, err
		}
		obj, err := codec.Decode(buf[pos : pos+objLen])
		if err != nil {
			return nil, fmt.Errorf("mtree: page %d entry %d: %w", id, i, err)
		}
		pos += objLen
		e.Object = obj
		n.entries = append(n.entries, e)
	}
	return n, nil
}
