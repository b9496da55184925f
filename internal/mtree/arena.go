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
	// (routing objects too), vecs the coordinates of vector kinds — and
	// then objs are views into vecs (see buildArena).
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
// uncounted peek and lays every node out flat. Each slab is allocated
// once, at its final size: the store holds NumNodes nodes and Size +
// NumNodes − 1 entries, one leaf entry per object plus one routing entry
// per node but the root.
//
// On vector kernels vecs is the one copy of the coordinates: every
// entry's object becomes a capacity-capped view of its own row, and the
// entry the store peeked is pointed at that same view. In memory mode
// the store's nodes are live, so store and arena results stay
// pointer-identical and the caller's vectors are no longer referenced;
// in paged mode the peeked nodes are decoded copies (decoding always
// copies — see codec.go) and nothing else changes. Other kernels keep
// the store's objects: in memory mode the very boxes the store holds.
// A view keeps its slab alive until the next freeze re-points the
// entries, so thawing never invalidates a result.
func buildArena(t *Tree) (*Arena, error) {
	root, err := t.store.peek(t.root)
	if err != nil {
		return nil, err
	}
	var sample metric.Object
	if len(root.entries) > 0 {
		sample = root.entries[0].Object
	}
	nodes := t.store.numNodes()
	entries := t.size + nodes - 1
	a := &Arena{reads: &t.reads, leaf: make([]bool, nodes), start: make([]int32, nodes), end: make([]int32, nodes)}
	a.engine = engine{
		// The accelerated view: bit-identical distances for the generic kind.
		kernel:  kernelFor(t.counter.Space(), sample),
		src:     a,
		counter: t.counter,
		bound:   t.opt.Space.Bound,
	}
	a.columns = columns{
		radius:     make([]float64, entries),
		parentDist: make([]float64, entries),
		child:      make([]int32, entries),
		oid:        make([]uint64, entries),
		objs:       make([]metric.Object, entries),
	}
	if a.kind == kernelVector {
		a.vecs = make([]float64, entries*a.dim)
	}

	var ni, ne int32 // nodes and entries laid out so far
	var walk func(id pager.PageID) (int32, error)
	walk = func(id pager.PageID) (int32, error) {
		n, err := t.store.peek(id)
		if err != nil {
			return 0, err
		}
		if int(ni) == nodes || int(ne)+len(n.entries) > entries {
			return 0, fmt.Errorf("mtree: arena freeze: the tree outgrows the store's %d nodes and %d entries", nodes, entries)
		}
		me, base := ni, ne
		ni, ne = ni+1, ne+int32(len(n.entries))
		a.leaf[me], a.start[me], a.end[me] = n.leaf, base, ne
		for i := range n.entries {
			e, j := &n.entries[i], int(base)+i
			a.parentDist[j], a.radius[j], a.oid[j], a.child[j] = e.ParentDist, e.Radius, e.OID, -1
			switch a.kind {
			case kernelVector:
				v, ok := e.Object.(metric.Vector)
				if !ok || len(v) != a.dim {
					return 0, fmt.Errorf("mtree: arena freeze: entry object %T does not match %d-dimensional vector layout", e.Object, a.dim)
				}
				row := a.vecs[j*a.dim : (j+1)*a.dim : (j+1)*a.dim]
				copy(row, v)
				e.Object = metric.Vector(row)
			case kernelEdit, kernelHamming:
				if _, ok := e.Object.(string); !ok {
					return 0, fmt.Errorf("mtree: arena freeze: entry object %T in a string space", e.Object)
				}
			}
			a.objs[j] = e.Object
		}
		n.cols.Store(nil) // a memory-mode node's cached columns still hold the old objects
		if !n.leaf {
			for i := range n.entries {
				ci, err := walk(n.entries[i].Child)
				if err != nil {
					return 0, err
				}
				a.child[int(base)+i] = ci
			}
		}
		return me, nil
	}
	if _, err := walk(t.root); err != nil {
		return nil, err
	}
	if int(ni) != nodes || int(ne) != entries {
		return nil, fmt.Errorf("mtree: arena freeze: the walk laid out %d nodes and %d entries, the store counts %d and %d", ni, ne, nodes, entries)
	}
	return a, nil
}

// Leaves appends the leaf entries' objects and tree-local OIDs to objs
// and oids in slab order: DFS preorder, leaf by leaf, each leaf's
// entries in node order. On vector kernels the objects are views into
// vecs, in ascending slab position.
func (a *Arena) Leaves(objs []metric.Object, oids []uint64) ([]metric.Object, []uint64) {
	for ni, leaf := range a.leaf {
		if leaf {
			objs = append(objs, a.objs[a.start[ni]:a.end[ni]]...)
			oids = append(oids, a.oid[a.start[ni]:a.end[ni]]...)
		}
	}
	return objs, oids
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
