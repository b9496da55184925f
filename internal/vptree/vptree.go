// Package vptree implements the vantage-point tree of Chiueh (VLDB'94),
// the second index the paper derives a cost model for (Section 5). An
// m-way vp-tree node stores a vantage point (a dataset object) and m-1
// cutoff values partitioning the remaining objects into m equal-count
// groups by their distance from the vantage point; leaves hold small
// buckets. The structure is static and main-memory: the paper's model
// ignores vp-tree I/O costs, and so does this implementation — CPU cost
// is the number of distance computations.
package vptree

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"mcost/internal/metric"
	"mcost/internal/obs"
)

// Options configures construction.
type Options struct {
	// Space is the bounded metric space of the indexed objects.
	Space *metric.Space
	// M is the node fan-out (>= 2, default 2: a binary vp-tree).
	M int
	// BucketSize is the leaf capacity (default 1, matching the paper's
	// model where every node holds exactly one object).
	BucketSize int
	// VantageSamples picks the vantage point with the best spread from
	// this many random candidates (default 5; 1 = random choice).
	VantageSamples int
	// SpreadSample is how many objects each vantage candidate is scored
	// against (default 30).
	SpreadSample int
	// Seed drives sampling.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.M == 0 {
		o.M = 2
	}
	if o.BucketSize == 0 {
		o.BucketSize = 1
	}
	if o.VantageSamples == 0 {
		o.VantageSamples = 5
	}
	if o.SpreadSample == 0 {
		o.SpreadSample = 30
	}
	return o
}

// Tree is an m-way vantage-point tree.
type Tree struct {
	opt     Options
	counter *metric.Counter
	root    *node
	size    int
	nodes   int
	height  int
}

type node struct {
	// Internal node fields.
	vantage  metric.Object
	vid      uint64
	cutoffs  []float64 // m-1 increasing cutoff values
	children []*node
	// Leaf fields.
	bucket []bucketItem
	leaf   bool
}

type bucketItem struct {
	obj metric.Object
	oid uint64
}

// Match is one query result.
type Match struct {
	Object   metric.Object
	OID      uint64
	Distance float64
}

// Build constructs the tree over the objects. OIDs follow input order.
func Build(objs []metric.Object, opt Options) (*Tree, error) {
	if opt.Space == nil {
		return nil, errors.New("vptree: Options.Space is required")
	}
	if err := opt.Space.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if opt.M < 2 {
		return nil, fmt.Errorf("vptree: M = %d, need >= 2", opt.M)
	}
	if opt.BucketSize < 1 {
		return nil, fmt.Errorf("vptree: BucketSize = %d, need >= 1", opt.BucketSize)
	}
	t := &Tree{
		opt: opt,
		// Accelerate swaps in the batched kernels (SWAR Hamming, pooled
		// Levenshtein rows) for the canonical metrics; bit-identical by
		// contract, so traces and counters are unchanged.
		counter: metric.NewCounter(metric.Accelerate(opt.Space)),
		size:    len(objs),
	}
	items := make([]bucketItem, len(objs))
	for i, o := range objs {
		if o == nil {
			return nil, fmt.Errorf("vptree: nil object at %d", i)
		}
		items[i] = bucketItem{obj: o, oid: uint64(i)}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	var height int
	t.root = t.build(items, rng, 1, &height)
	t.height = height
	return t, nil
}

// build recursively constructs a subtree.
func (t *Tree) build(items []bucketItem, rng *rand.Rand, depth int, maxDepth *int) *node {
	if len(items) == 0 {
		return nil
	}
	if depth > *maxDepth {
		*maxDepth = depth
	}
	if len(items) <= t.opt.BucketSize {
		t.nodes++
		return &node{leaf: true, bucket: items}
	}
	vi := t.pickVantage(items, rng)
	v := items[vi]
	rest := make([]bucketItem, 0, len(items)-1)
	rest = append(rest, items[:vi]...)
	rest = append(rest, items[vi+1:]...)

	// Distances from the vantage point to every remaining object.
	type distItem struct {
		bucketItem
		d float64
	}
	di := make([]distItem, len(rest))
	for i, it := range rest {
		di[i] = distItem{bucketItem: it, d: t.dist(v.obj, it.obj)}
	}
	sort.Slice(di, func(a, b int) bool { return di[a].d < di[b].d })

	// Cutoffs at the i/m quantiles of the observed distances; groups get
	// equal cardinality (up to remainders), as in the paper.
	m := t.opt.M
	if m > len(di) {
		m = len(di)
		if m < 2 {
			m = 2
		}
	}
	n := &node{vantage: v.obj, vid: v.oid, cutoffs: make([]float64, 0, m-1), children: make([]*node, 0, m)}
	t.nodes++
	bounds := make([]int, m+1)
	for i := 0; i <= m; i++ {
		bounds[i] = i * len(di) / m
	}
	for i := 1; i < m; i++ {
		// The cutoff is the largest distance in group i, so "<= mu_i"
		// exactly captures groups 1..i.
		idx := bounds[i] - 1
		if idx < 0 {
			idx = 0
		}
		n.cutoffs = append(n.cutoffs, di[idx].d)
	}
	for i := 0; i < m; i++ {
		group := make([]bucketItem, 0, bounds[i+1]-bounds[i])
		for _, x := range di[bounds[i]:bounds[i+1]] {
			group = append(group, x.bucketItem)
		}
		n.children = append(n.children, t.build(group, rng, depth+1, maxDepth))
	}
	return n
}

// pickVantage chooses the candidate with the largest spread (standard
// deviation of distances to a sample), the heuristic from Yianilos'
// construction; with VantageSamples=1 it degenerates to a random pick.
func (t *Tree) pickVantage(items []bucketItem, rng *rand.Rand) int {
	if t.opt.VantageSamples <= 1 || len(items) <= 2 {
		return rng.Intn(len(items))
	}
	bestIdx, bestSpread := 0, -1.0
	for c := 0; c < t.opt.VantageSamples; c++ {
		cand := rng.Intn(len(items))
		var sum, sum2 float64
		probes := t.opt.SpreadSample
		if probes > len(items) {
			probes = len(items)
		}
		for p := 0; p < probes; p++ {
			o := items[rng.Intn(len(items))]
			d := t.dist(items[cand].obj, o.obj)
			sum += d
			sum2 += d * d
		}
		mean := sum / float64(probes)
		spread := sum2/float64(probes) - mean*mean
		if spread > bestSpread {
			bestSpread, bestIdx = spread, cand
		}
	}
	return bestIdx
}

func (t *Tree) dist(a, b metric.Object) float64 {
	return t.counter.Distance(a, b)
}

// Size returns the number of indexed objects.
func (t *Tree) Size() int { return t.size }

// NumNodes returns the number of tree nodes (internal + leaves).
func (t *Tree) NumNodes() int { return t.nodes }

// Height returns the maximum depth.
func (t *Tree) Height() int { return t.height }

// M returns the fan-out.
func (t *Tree) M() int { return t.opt.M }

// BucketSize returns the leaf capacity.
func (t *Tree) BucketSize() int { return t.opt.BucketSize }

// DistanceCount returns distances computed since the last reset.
func (t *Tree) DistanceCount() int64 { return t.counter.Count() }

// ResetCounters zeroes the distance counter.
func (t *Tree) ResetCounters() { t.counter.Reset() }

// NodesVisited is reported alongside results by the search methods via
// the VisitStats out parameter.
type VisitStats struct {
	// InternalVisits counts internal nodes whose vantage distance was
	// computed — the unit of the paper's vp-tree cost model.
	InternalVisits int
	// LeafVisits counts leaf buckets scanned.
	LeafVisits int
}

// Range returns all objects within radius of q. stats and tr may be nil;
// a non-nil obs.Trace records node visits and distance computations per
// depth (root = 1), and child rings excluded by the cutoff test (Eq. 19,
// the vp-tree's pruning lemma) as RadiusPruned at the parent's level. A
// nil trace costs nothing.
func (t *Tree) Range(q metric.Object, radius float64, stats *VisitStats, tr *obs.Trace) ([]Match, error) {
	if q == nil {
		return nil, errors.New("vptree: nil query")
	}
	if !(radius >= 0) {
		return nil, fmt.Errorf("vptree: radius %g is negative or NaN", radius)
	}
	tr.StartRange(radius)
	var out []Match
	t.rangeAt(t.root, q, radius, 1, stats, tr, &out)
	return out, nil
}

func (t *Tree) rangeAt(n *node, q metric.Object, radius float64, level int, stats *VisitStats, tr *obs.Trace, out *[]Match) {
	if n == nil {
		return
	}
	if n.leaf {
		if stats != nil {
			stats.LeafVisits++
		}
		tr.Visit(level)
		for _, it := range n.bucket {
			d := t.dist(q, it.obj)
			tr.Dist(level)
			if d <= radius {
				*out = append(*out, Match{Object: it.obj, OID: it.oid, Distance: d})
			}
		}
		return
	}
	if stats != nil {
		stats.InternalVisits++
	}
	tr.Visit(level)
	d := t.dist(q, n.vantage)
	tr.Dist(level)
	if d <= radius {
		*out = append(*out, Match{Object: n.vantage, OID: n.vid, Distance: d})
	}
	lo := 0.0
	for i, child := range n.children {
		hi := t.opt.Space.Bound
		if i < len(n.cutoffs) {
			hi = n.cutoffs[i]
		}
		// Child i holds objects with vantage distance in (lo, hi]; the
		// paper's rule (Eq. 19): visit iff mu_{i-1} - rQ < d <= mu_i + rQ.
		if d > lo-radius && d <= hi+radius {
			t.rangeAt(child, q, radius, level+1, stats, tr, out)
		} else if child != nil {
			tr.PruneRadius(level)
		}
		lo = hi
	}
}

// nnItem is a pending subtree ordered by its distance lower bound.
type nnItem struct {
	n     *node
	dMin  float64
	level int // depth of the subtree root (tree root = 1)
}

type nnQueue []nnItem

func (h nnQueue) Len() int            { return len(h) }
func (h nnQueue) Less(i, j int) bool  { return h[i].dMin < h[j].dMin }
func (h nnQueue) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnQueue) Push(x interface{}) { *h = append(*h, x.(nnItem)) }
func (h *nnQueue) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type resultHeap []Match

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].Distance > h[j].Distance }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Match)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// NN returns the k nearest neighbors of q by best-first search with ring
// lower bounds. stats and tr may be nil (see Range for what a trace
// records).
func (t *Tree) NN(q metric.Object, k int, stats *VisitStats, tr *obs.Trace) ([]Match, error) {
	if q == nil {
		return nil, errors.New("vptree: nil query")
	}
	if k <= 0 {
		return nil, fmt.Errorf("vptree: k = %d", k)
	}
	if t.root == nil {
		return nil, nil
	}
	tr.StartNN(k)
	pq := &nnQueue{{n: t.root, dMin: 0, level: 1}}
	best := &resultHeap{}
	rk := func() float64 {
		if best.Len() < k {
			return t.opt.Space.Bound
		}
		return (*best)[0].Distance
	}
	add := func(m Match) {
		if m.Distance > rk() {
			return
		}
		heap.Push(best, m)
		if best.Len() > k {
			heap.Pop(best)
		}
	}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nnItem)
		if item.dMin > rk() {
			break
		}
		n := item.n
		if n.leaf {
			if stats != nil {
				stats.LeafVisits++
			}
			tr.Visit(item.level)
			for _, it := range n.bucket {
				d := t.dist(q, it.obj)
				tr.Dist(item.level)
				add(Match{Object: it.obj, OID: it.oid, Distance: d})
			}
			continue
		}
		if stats != nil {
			stats.InternalVisits++
		}
		tr.Visit(item.level)
		d := t.dist(q, n.vantage)
		tr.Dist(item.level)
		add(Match{Object: n.vantage, OID: n.vid, Distance: d})
		lo := 0.0
		for i, child := range n.children {
			hi := t.opt.Space.Bound
			if i < len(n.cutoffs) {
				hi = n.cutoffs[i]
			}
			if child != nil {
				var dMin float64
				switch {
				case d < lo:
					dMin = lo - d
				case d > hi:
					dMin = d - hi
				}
				if dMin <= rk() {
					heap.Push(pq, nnItem{n: child, dMin: dMin, level: item.level + 1})
				} else {
					tr.PruneRadius(item.level)
				}
			}
			lo = hi
		}
	}
	out := make([]Match, best.Len())
	for i := best.Len() - 1; i >= 0; i-- {
		out[i] = heap.Pop(best).(Match)
	}
	return out, nil
}

// CutoffsAtRoot exposes the root's cutoff values (nil for a leaf root):
// the quantities the cost model estimates as quantiles of F.
func (t *Tree) CutoffsAtRoot() []float64 {
	if t.root == nil || t.root.leaf {
		return nil
	}
	out := make([]float64, len(t.root.cutoffs))
	copy(out, t.root.cutoffs)
	return out
}
