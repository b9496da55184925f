package mtree

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"mcost/internal/metric"
)

// Scan is the first-class linear-scan engine: the thing the
// breakdown-aware planner routes to when high intrinsic dimension
// defeats the tree (Pestov's lower bounds — past the concentration
// point every metric index reads most of its nodes AND pays the
// traversal overhead, so the honest plan is the flat scan). It owns an
// (OID, object) list, answers the same range/k-NN queries as the tree
// with identical tie-break conventions (the k smallest (distance, OID)
// pairs, closest first), and meters cost in the paper's currency: one
// distance computation per object and one node read per leaf-equivalent
// page of sequentially-scanned objects.
//
// QueryOptions.Budget and Ctx are honored at page granularity, like the
// tree's per-node-fetch checks: a stopped query returns the valid
// partial result accumulated so far with the typed budget/context
// error. Batches share the page reads across the batch, like the
// tree's: the scan is a node source of the same traversal core
// (core.go).
//
// Pages are cut from the list in scan order. NewScan's order is OID
// order; an mcost.Index over frozen arenas scans in slab order — shard
// by shard, each arena's leaves in DFS preorder — because its objects
// are views into the slabs. A full answer is canonical either way and
// costs the same pages and distances; only which objects a stopped
// query has seen, and so its partial answer, follows the scan order.
//
// Like the tree, a Scan is safe for concurrent read-only queries;
// Insert/Remove must not run concurrently with queries.
type Scan struct {
	engine  // src is the scan itself; counter meters its distances
	columns // objs and their oid, in scan order; no other column is read at level 1
	perPage int

	nodeReads atomic.Int64
}

// NewScan builds a scan engine over the objects with OIDs equal to the
// slice index — the same OIDs the tree assigns at BulkLoad, so results
// are comparable across engines. pageSize sizes the leaf-equivalent
// page used for the node-read meter; objs[0] fixes the per-object
// encoded size.
func NewScan(space *metric.Space, objs []metric.Object, pageSize int) (*Scan, error) {
	if len(objs) == 0 {
		return nil, errors.New("mtree: scan: no objects")
	}
	oids := make([]uint64, len(objs))
	for i := range oids {
		oids[i] = uint64(i)
	}
	return NewScanOIDs(space, append([]metric.Object(nil), objs...), oids, objs[0], pageSize)
}

// NewScanOIDs builds a scan engine that reads objs in the order given,
// objs[i] under oids[i]. The scan keeps both slices. An mcost.Index
// passes the leaf views of its frozen arenas in slab order (see
// Arena.Leaves), so the scan walks each coordinate slab front to back.
// sample fixes the per-object encoded size, so that variable-size
// objects cost the same pages in any scan order.
func NewScanOIDs(space *metric.Space, objs []metric.Object, oids []uint64, sample metric.Object, pageSize int) (*Scan, error) {
	if space == nil {
		return nil, errors.New("mtree: scan: nil space")
	}
	if len(objs) == 0 {
		return nil, errors.New("mtree: scan: no objects")
	}
	if len(oids) != len(objs) {
		return nil, fmt.Errorf("mtree: scan: %d OIDs for %d objects", len(oids), len(objs))
	}
	per, err := scanObjectsPerPage(sample, pageSize)
	if err != nil {
		return nil, err
	}
	s := &Scan{columns: columns{objs: objs, oid: oids}, perPage: per}
	// No d+ cap on the search radius: the scan answers for whatever
	// distances the space produces.
	s.engine = engine{kernel: kernelFor(space, objs[0]), src: s, counter: metric.NewCounter(space), bound: math.Inf(1)}
	return s, nil
}

// scanObjectsPerPage derives how many packed objects one leaf-equivalent
// page holds, from the same on-page layout formula the tree uses — so
// the scan's node-read meter and the planner's scan cost stay honest
// against the tree's.
func scanObjectsPerPage(sample metric.Object, pageSize int) (int, error) {
	codec, err := CodecFor(sample)
	if err != nil {
		return 0, fmt.Errorf("mtree: scan: %w", err)
	}
	if pageSize <= 0 {
		pageSize = 4096
	}
	leafCap, _ := NodeCapacities(pageSize, codec.Size(sample))
	return max(leafCap, 1), nil
}

// ScanPages returns the sequential page reads a full scan of n objects
// of the sample's shape costs — the Nodes term of the scan cost
// estimate, shared by the planner and the engine's meter.
func ScanPages(sample metric.Object, n, pageSize int) (int, error) {
	per, err := scanObjectsPerPage(sample, pageSize)
	if err != nil {
		return 0, err
	}
	return (n + per - 1) / per, nil
}

// Size returns the number of scannable objects.
func (s *Scan) Size() int { return len(s.objs) }

// Pages returns the sequential page reads one full scan costs.
func (s *Scan) Pages() int { return (len(s.objs) + s.perPage - 1) / s.perPage }

// NodeReads returns the leaf-equivalent page reads accumulated since
// the last ResetCounters.
func (s *Scan) NodeReads() int64 { return s.nodeReads.Load() }

// DistanceCount returns the distance computations accumulated since the
// last ResetCounters.
func (s *Scan) DistanceCount() int64 { return s.counter.Count() }

// ResetCounters zeroes the cost meters.
func (s *Scan) ResetCounters() {
	s.nodeReads.Store(0)
	s.counter.Reset()
}

// Insert appends one object under the given OID (the tree hands out
// OIDs; the scan mirrors them so the engines stay comparable).
func (s *Scan) Insert(obj metric.Object, oid uint64) {
	s.objs = append(s.objs, obj)
	s.oid = append(s.oid, oid)
}

// Remove deletes the object stored under oid; it reports whether the
// OID was present. Order of the remaining objects is preserved — scan
// results stay deterministic across deletions.
func (s *Scan) Remove(oid uint64) bool {
	for i, id := range s.oid {
		if id == oid {
			s.objs = append(s.objs[:i], s.objs[i+1:]...)
			s.oid = append(s.oid[:i], s.oid[i+1:]...)
			return true
		}
	}
	return false
}

// roots and load make the scan a nodeSource: every leaf-equivalent page
// is a level-1 leaf node with no routing object, so the core's leaf
// visit is the page scan — every object pays a distance, nothing is
// pruned — and distances go through the same kernel dispatch as the
// arena's, straight off the objects' own coordinates.
func (s *Scan) roots() (int32, int) { return 0, s.Pages() }

func (s *Scan) load(ref int32) (nodeView, error) {
	s.nodeReads.Add(1)
	lo := int(ref) * s.perPage
	return nodeView{columns: &s.columns, leaf: true, lo: int32(lo), hi: int32(min(lo+s.perPage, len(s.objs)))}, nil
}

// Range returns all objects within radius of q in (distance, OID)
// order: unlike the tree's traversal order, the scan's answer is
// canonical. A stopped query's partial is the canonical order of the
// matches in the pages scanned so far.
func (s *Scan) Range(q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	out, err := s.rangeQuery(nil, q, radius, opt)
	return canonical(out), err
}

// NN returns the k nearest neighbors of q, closest first, with the
// canonical (distance, OID) tie-break shared by every engine. A stopped
// query's partial is the best neighbors of the pages scanned so far; a
// closer neighbor may live in the unscanned suffix.
func (s *Scan) NN(q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	return s.nnQuery(nil, q, k, math.Inf(1), opt)
}

// RangeBatch answers a batch of range queries in one shared pass: each
// page is read (and charged) once for the whole batch, every query pays
// its own distance computations. out[i] is exactly Range(qs[i], radius).
func (s *Scan) RangeBatch(qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	out, err := s.rangeBatch(qs, radius, opt)
	for _, ms := range out {
		canonical(ms)
	}
	return out, err
}

// NNBatch answers a batch of k-NN queries over one page memo: page
// reads amortize across the batch (see Tree.NNBatch).
func (s *Scan) NNBatch(qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	return s.nnBatch(qs, k, opt)
}
