package mtree

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// Arena is a frozen, flat, columnar view of the whole tree: routing
// radii, parent distances, child indices, and OIDs live in contiguous
// typed slabs, vector coordinates in one aligned float64 slab, and
// nodes are identified by dense indices in DFS preorder (root = 0).
// Queries over an arena never touch the node store — no per-node
// decode, no pager mutex, no per-entry Decode allocation — yet produce
// bit-identical results, traces, and counter totals to the store-backed
// traversal, because both are node sources of the one traversal core
// (core.go).
//
// An arena is a read-only snapshot. Tree mutations (Insert, Delete,
// BulkLoad, Restore) thaw it automatically; FreezeArena rebuilds it.
type Arena struct {
	engine // src is the arena itself; counter is shared with the owning tree

	reads *atomic.Int64 // the owning tree's node-read counter

	// Per-node slabs, indexed by dense node index.
	leaf  []bool
	start []int32 // first entry index of node i
	end   []int32 // one past the last entry index of node i

	// Per-entry slabs, indexed by dense entry index: child is the dense
	// child node index (-1 for leaf entries), objs the result objects
	// (routing objects too), vecs the coordinates of vector kinds.
	columns
}

// ArenaConfig has no fields; it stays because bench/ passes it to FreezeArena.
type ArenaConfig struct{}

// FreezeArena builds the arena snapshot of the current tree in the Go
// heap and routes all subsequent queries through it. The tree must be
// non-empty. Its signature is kept because bench/ calls it.
func (t *Tree) FreezeArena(ArenaConfig) error {
	if t.root == pager.InvalidPage {
		return errors.New("mtree: cannot freeze an empty tree")
	}
	a, err := buildArena(t)
	if err != nil {
		return err
	}
	t.arena = a
	return nil
}

// ThawArena detaches the arena; queries go back through the node store.
func (t *Tree) ThawArena() { t.arena = nil }

// Arena returns the attached arena, or nil when queries run through the
// node store.
func (t *Tree) Arena() *Arena { return t.arena }

// NumNodes returns the number of tree nodes captured in the arena.
func (a *Arena) NumNodes() int { return len(a.leaf) }

// buildArena walks the tree in DFS preorder through the store's
// uncounted peek and lays every node out flat. In memory mode the
// result objects are the very boxes the store holds, so arena results
// are pointer-identical to store results; in paged mode they are the
// decoded copies peek produced (decoding always copies — see codec.go).
func buildArena(t *Tree) (*Arena, error) {
	root, err := t.store.peek(t.root)
	if err != nil {
		return nil, err
	}
	var sample metric.Object
	if len(root.entries) > 0 {
		sample = root.entries[0].Object
	}
	a := &Arena{reads: &t.reads}
	a.engine = engine{
		// The accelerated view: bit-identical distances for the generic kind.
		kernel:  kernelFor(t.counter.Space(), sample),
		src:     a,
		counter: t.counter,
		bound:   t.opt.Space.Bound,
	}

	var walk func(id pager.PageID) (int32, error)
	walk = func(id pager.PageID) (int32, error) {
		n, err := t.store.peek(id)
		if err != nil {
			return 0, err
		}
		ni := int32(len(a.leaf))
		base := int32(len(a.oid))
		a.leaf = append(a.leaf, n.leaf)
		a.start = append(a.start, base)
		a.end = append(a.end, base+int32(len(n.entries)))
		for i := range n.entries {
			e := &n.entries[i]
			a.parentDist = append(a.parentDist, e.ParentDist)
			a.radius = append(a.radius, e.Radius)
			a.oid = append(a.oid, e.OID)
			a.child = append(a.child, -1)
			a.objs = append(a.objs, e.Object)
			switch a.kind {
			case kernelVector:
				v, ok := e.Object.(metric.Vector)
				if !ok || len(v) != a.dim {
					return 0, fmt.Errorf("mtree: arena freeze: entry object %T does not match %d-dimensional vector layout", e.Object, a.dim)
				}
				a.vecs = append(a.vecs, v...)
			case kernelEdit, kernelHamming:
				if _, ok := e.Object.(string); !ok {
					return 0, fmt.Errorf("mtree: arena freeze: entry object %T in a string space", e.Object)
				}
			}
		}
		if !n.leaf {
			for i := range n.entries {
				ci, err := walk(n.entries[i].Child)
				if err != nil {
					return 0, err
				}
				a.child[base+int32(i)] = ci
			}
		}
		return ni, nil
	}
	if _, err := walk(t.root); err != nil {
		return nil, err
	}
	return a, nil
}

// roots and load make the arena a nodeSource: a node read is a counter
// bump and the node's entry range in the slabs.
func (a *Arena) roots() (int32, int) { return 0, 1 }

func (a *Arena) load(ref int32) (nodeView, error) {
	a.reads.Add(1)
	return nodeView{columns: &a.columns, leaf: a.leaf[ref], lo: a.start[ref], hi: a.end[ref]}, nil
}

// RangeAppend runs a range query over the arena, appending matches to
// dst and returning the extended slice. With dst capacity in place this
// is the zero-allocation hot path the CI gate pins (0 allocs/op for
// vector spaces). Results, order, traces, and counters are identical to
// Tree.Range.
func (a *Arena) RangeAppend(dst []Match, q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	return a.rangeQuery(dst, q, radius, opt)
}

// NNAppend runs a k-NN query over the arena, appending the neighbors
// (closest first) to dst. Like RangeAppend it is allocation-free once
// dst and the pooled scratch are warm. Results are identical to
// Tree.NN.
func (a *Arena) NNAppend(dst []Match, q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	return a.nnQuery(dst, q, k, math.Inf(1), opt)
}
