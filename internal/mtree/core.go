package mtree

import (
	"fmt"
	"math"
	"sync"

	"mcost/internal/budget"
	"mcost/internal/metric"
)

// The traversal core. The paper prices one range algorithm and one
// optimal best-first k-NN (Sec. 3) in node reads and distance
// computations; this file is their one implementation, plus the two
// batch forms (a shared range visit, and per-query best-first searches
// over a shared node memo). The node store, the frozen arena and the
// linear scan differ only in how a node's entries reach memory — they
// are nodeSources — so results, result order, traces and counter totals
// are identical across them by construction.

// BoundGuard is the share of its operands' size that a lower bound
// built from a difference of computed distances gives up, so rounding
// can never turn it into a wrong proof. Each computed distance is off by
// at most about D/2 ulps for a D-term sum; 2⁻⁴⁰ is some four thousand.
// Without it a member at exactly the query radius is lost to the last
// bit — under L∞, or under L2 on a grid. Integer-valued metrics are
// exact, and the guard moves no bound across an integer or half-integer
// radius.
const BoundGuard = 0x1p-40

// parentPrunes is the parent-distance lemma: |d(Q,Op) − d(O,Op)| ≤
// d(Q,O), so once the difference, less BoundGuard of the two distances'
// sum, exceeds bound (the query radius, plus the covering radius for a
// routing entry) the entry cannot qualify and its distance computation
// is saved. The sum bounds the larger distance without a branch in the
// traversal's innermost loop. A NaN distance proves nothing; callers
// test dQP, NaN at the root, first, because a scan's leaf pages carry no
// parent distances.
func parentPrunes(dQP, dOP, bound float64) bool {
	return math.Abs(dQP-dOP)-BoundGuard*(dQP+dOP) > bound
}

// nodeSource is what the core needs from an index layout. A source is
// read node-at-a-time, so the indirect call is paid per node, never per
// entry.
type nodeSource interface {
	// roots reports the level-1 nodes as refs first..first+n-1. The
	// core searches them in order; n == 0 is an empty index, whose
	// queries cost nothing. A tree has one root; the scan's leaf pages
	// are all roots.
	roots() (first int32, n int)
	// load reads node ref — one node read in the paper's currency,
	// counted by the source — and says where its entries are.
	load(ref int32) (nodeView, error)
}

// nodeView is one loaded node: entries [lo, hi) of a set of columns.
type nodeView struct {
	*columns
	leaf   bool
	lo, hi int32
}

// columns holds entry fields column-wise, read-only to the core: the
// arena's slabs, one stored node's transposed entries, or the scan's
// object list. A new per-entry column (a second pivot distance, say) is
// a field here, a fill in each source, and a pruning clause in the core.
type columns struct {
	radius     []float64 // covering radii; internal nodes only
	parentDist []float64 // d(entry, the node's routing object); unread at level 1
	child      []int32   // child refs; internal nodes only
	oid        []uint64  // leaf nodes only
	objs       []metric.Object
	vecs       []float64 // coordinate slab, entry i at [i*dim, (i+1)*dim); nil when the source keeps none
}

// kernelKind selects the distance kernel dispatched on the hot path.
type kernelKind uint8

const (
	kernelGeneric kernelKind = iota // space.Distance on boxed objects
	kernelVector                    // Lp slab kernel over raw coordinates
	kernelEdit                      // prefix-shared Levenshtein
	kernelHamming                   // SWAR Hamming
)

// kernel is the per-entry distance dispatch every source shares.
type kernel struct {
	space *metric.Space
	kind  kernelKind
	dim   int // vector dimension when kind == kernelVector
	vec   metric.VecKernel
}

// kernelFor picks the kernel for a space whose objects look like
// sample. A kernel replaces space.Distance only when that IS the
// canonical package metric (metric.CanonicalName goes by function
// identity, not by name), so a custom distance registered under a known
// name keeps the generic kind and its own semantics.
func kernelFor(space *metric.Space, sample metric.Object) kernel {
	k := kernel{space: space}
	name := metric.CanonicalName(space)
	switch s := sample.(type) {
	case metric.Vector:
		if vk := metric.VecKernelFor(name); vk != nil {
			k.kind, k.dim, k.vec = kernelVector, len(s), vk
		}
	case string:
		switch name {
		case "edit":
			k.kind = kernelEdit
		case "hamming":
			k.kind = kernelHamming
		}
	}
	return k
}

// dist computes d(query, entry i of c). The kernels are bit-identical
// to space.Distance (see metric/kernels.go), so pruning decisions
// cannot depend on which one ran.
func (k *kernel) dist(sc *scratch, c *columns, i int32) float64 {
	switch k.kind {
	case kernelVector:
		if c.vecs != nil {
			off := int(i) * k.dim
			return k.vec(sc.qv, c.vecs[off:off+k.dim])
		}
		return k.vec(sc.qv, c.objs[i].(metric.Vector))
	case kernelHamming:
		return metric.HammingRaw(sc.q.(string), c.objs[i].(string))
	case kernelEdit:
		return float64(sc.lev.Dist(c.objs[i].(string)))
	default:
		return k.space.Distance(sc.q, c.objs[i])
	}
}

// scratch is the pooled per-query state: the decoded query, the
// priority queues, and the prefix-shared edit-distance rows. Reusing it
// across queries is what makes the arena hot paths allocation-free.
type scratch struct {
	q    metric.Object
	qv   []float64         // kind == kernelVector
	lev  *metric.PrefixLev // kind == kernelEdit
	pq   []nnItem
	best []Match
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// engine is the traversal core bound to one node source.
type engine struct {
	kernel
	src     nodeSource
	counter *metric.Counter // credited once per node, not per distance
	bound   float64         // d+, the initial k-NN search radius
}

func (e *engine) getScratch(q metric.Object) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.q = q
	switch e.kind {
	case kernelVector:
		sc.qv = []float64(q.(metric.Vector))
		if len(sc.qv) != e.dim {
			panic(fmt.Sprintf("metric: dimension mismatch %d vs %d", len(sc.qv), e.dim))
		}
	case kernelEdit:
		if sc.lev == nil {
			sc.lev = new(metric.PrefixLev)
		}
		sc.lev.Reset(q.(string))
	}
	return sc
}

func putScratch(sc *scratch) {
	sc.q = nil
	sc.qv = nil
	scratchPool.Put(sc)
}

// checkArgs is the one argument contract of every query entry point:
// no nil query, no negative (stop) radius, k at least 1.
func checkArgs(qs []metric.Object, radius float64, k int) error {
	for i, q := range qs {
		if q == nil {
			return fmt.Errorf("mtree: nil query object (query %d of %d)", i+1, len(qs))
		}
	}
	if radius < 0 {
		return fmt.Errorf("mtree: negative radius %g", radius)
	}
	if k <= 0 {
		return fmt.Errorf("mtree: k = %d", k)
	}
	return nil
}

// rangeQuery appends to dst all objects within radius of q, in DFS
// order. On a guard stop (see QueryOptions.Ctx) or a failed node read
// the matches found so far are returned with the error.
func (e *engine) rangeQuery(dst []Match, q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	if err := checkArgs([]metric.Object{q}, radius, 1); err != nil {
		return dst, err
	}
	opt.Trace.StartRange(radius)
	return e.rangeSearch(opt.guard(), dst, q, radius, opt)
}

// rangeSearch is the depth-first walk of rangeQuery, untraced at entry.
func (e *engine) rangeSearch(g *budget.Guard, dst []Match, q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	sc := e.getScratch(q)
	first, n := e.src.roots()
	var err error
	for r := 0; r < n && err == nil; r++ {
		dst, err = e.rangeVisit(first+int32(r), radius, math.NaN(), 1, opt, g, sc, dst)
	}
	putScratch(sc)
	return dst, err
}

// rangeVisit collects matches under node ref, a node at the given level
// (root = 1). distQP is d(q, routing object of this node) — NaN at
// level 1.
func (e *engine) rangeVisit(ref int32, radius, distQP float64, level int, opt QueryOptions, g *budget.Guard, sc *scratch, out []Match) ([]Match, error) {
	if err := g.BeforeFetch(); err != nil {
		return out, err
	}
	nv, err := e.src.load(ref)
	if err != nil {
		return out, err
	}
	opt.Trace.Visit(level)
	dists := 0
	for i := nv.lo; i < nv.hi; i++ {
		bound := radius
		if !nv.leaf {
			bound += nv.radius[i]
		}
		if opt.UseParentDist && !math.IsNaN(distQP) && parentPrunes(distQP, nv.parentDist[i], bound) {
			opt.Trace.PruneParent(level)
			continue
		}
		d := e.dist(sc, nv.columns, i)
		dists++
		opt.Trace.Dist(level)
		if err := g.OnDist(); err != nil {
			e.counter.AddN(int64(dists))
			return out, err
		}
		if d > bound {
			if !nv.leaf {
				opt.Trace.PruneRadius(level)
			}
			continue
		}
		if nv.leaf {
			out = append(out, Match{Object: nv.objs[i], OID: nv.oid[i], Distance: d})
			continue
		}
		// Flush before recursing so mid-query counter reads observe the
		// same prefix totals as per-call accounting would.
		e.counter.AddN(int64(dists))
		dists = 0
		if out, err = e.rangeVisit(nv.child[i], radius, d, level+1, opt, g, sc, out); err != nil {
			return out, err
		}
	}
	e.counter.AddN(int64(dists))
	return out, nil
}

// nnItem is a pending subtree in the k-NN search, ordered by dMin, the
// lower bound on the distance from q to any object in the subtree.
type nnItem struct {
	node  int32
	level int32 // tree level of the subtree root (tree root = 1)
	dMin  float64
	distQ float64 // d(q, routing object of the subtree); NaN at level 1
}

// The two typed heaps below use the standard library heap's up/down
// algorithms verbatim, so push and pop sequences — and therefore the
// order tied subtrees are expanded in — are those of a heap.Interface
// queue.

func nnqPush(h []nnItem, x nnItem) []nnItem {
	h = append(h, x)
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].dMin < h[i].dMin) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func nnqPop(h []nnItem) ([]nnItem, nnItem) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dMin < h[j1].dMin {
			j = j2
		}
		if !(h[j].dMin < h[i].dMin) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// bestLess orders the result heap: it keeps the k best matches seen so
// far, max distance on top. Distance ties break on OID so the retained
// set — and therefore the k-NN answer at a tied k-th boundary — is the
// k smallest (distance, OID) pairs regardless of traversal encounter
// order. Canonical answers let result caches and cross-engine
// comparisons demand bit-identity.
func bestLess(x, y Match) bool {
	if x.Distance != y.Distance {
		return x.Distance > y.Distance
	}
	return x.OID > y.OID
}

func bestPush(h []Match, x Match) []Match {
	h = append(h, x)
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !bestLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func bestDown(h []Match, i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && bestLess(h[j2], h[j1]) {
			j = j2
		}
		if !bestLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// bestPop removes the heap top (the current k-th best).
func bestPop(h []Match) []Match {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	bestDown(h, 0, n)
	return h[:n]
}

// canonical orders matches by (distance, OID) — the order k-NN answers
// come in and result caches and cross-engine equivalence tests compare
// under — by heap sort over the result heap's ordering. A slice that is
// already a result heap skips the heapify pass unharmed.
func canonical(ms []Match) []Match {
	for i := len(ms)/2 - 1; i >= 0; i-- {
		bestDown(ms, i, len(ms))
	}
	for n := len(ms); n > 1; n-- {
		bestPop(ms[:n])
	}
	return ms
}

// rk is the dynamic k-NN search radius: the k-th best distance so far
// (d+ until k matches are held), capped by the stop radius.
func rk(best []Match, k int, bound, stopRadius float64) float64 {
	if len(best) >= k {
		bound = best[0].Distance
	}
	if stopRadius < bound {
		return stopRadius
	}
	return bound
}

// nnQuery appends to dst the k nearest neighbors of q, closest first,
// never expanding a subtree whose distance lower bound exceeds
// stopRadius (+Inf for plain NN). On a guard stop or a failed node read
// the best matches so far are returned with the error.
func (e *engine) nnQuery(dst []Match, q metric.Object, k int, stopRadius float64, opt QueryOptions) ([]Match, error) {
	if err := checkArgs([]metric.Object{q}, stopRadius, k); err != nil {
		return dst, err
	}
	opt.Trace.StartNN(k)
	return e.nnSearch(opt.guard(), dst, q, k, stopRadius, opt, nil)
}

// nnSearch is the best-first loop. A non-nil memo gives nnBatch's
// semantics: the first access to a node in the batch is guarded,
// counted and traced, and its view is kept; later accesses are free.
func (e *engine) nnSearch(g *budget.Guard, dst []Match, q metric.Object, k int, stopRadius float64, opt QueryOptions, memo map[int32]nodeView) ([]Match, error) {
	// No defer and no closure here: either would force pq/best onto the
	// heap and break the allocation-free contract. The one exit below
	// drains best into dst and hands the (possibly regrown) storage back
	// to the scratch.
	sc := e.getScratch(q)
	pq, best := sc.pq[:0], sc.best[:0]
	first, n := e.src.roots()
	var err error
search:
	for r := 0; r < n; r++ {
		pq = append(pq[:0], nnItem{node: first + int32(r), level: 1, distQ: math.NaN()})
		for len(pq) > 0 {
			var item nnItem
			pq, item = nnqPop(pq)
			if item.dMin > rk(best, k, e.bound, stopRadius) {
				break // so does every subtree still queued under this root
			}
			nv, seen := memo[item.node]
			if !seen {
				if err = g.BeforeFetch(); err != nil {
					break search
				}
				if nv, err = e.src.load(item.node); err != nil {
					break search
				}
				opt.Trace.Visit(int(item.level))
				if memo != nil {
					memo[item.node] = nv
				}
			}
			dists := 0
			for i := nv.lo; i < nv.hi; i++ {
				bound := rk(best, k, e.bound, stopRadius)
				if !nv.leaf {
					bound += nv.radius[i]
				}
				if opt.UseParentDist && !math.IsNaN(item.distQ) && parentPrunes(item.distQ, nv.parentDist[i], bound) {
					opt.Trace.PruneParent(int(item.level))
					continue
				}
				d := e.dist(sc, nv.columns, i)
				dists++
				opt.Trace.Dist(int(item.level))
				if err = g.OnDist(); err != nil {
					e.counter.AddN(int64(dists))
					break search
				}
				if nv.leaf {
					if d <= rk(best, k, e.bound, stopRadius) {
						best = bestPush(best, Match{Object: nv.objs[i], OID: nv.oid[i], Distance: d})
						if len(best) > k {
							best = bestPop(best)
						}
					}
					continue
				}
				dMin := d - nv.radius[i]
				if dMin < 0 {
					dMin = 0
				}
				if dMin <= rk(best, k, e.bound, stopRadius) {
					pq = nnqPush(pq, nnItem{node: nv.child[i], dMin: dMin, distQ: d, level: item.level + 1})
				} else {
					opt.Trace.PruneRadius(int(item.level))
				}
			}
			e.counter.AddN(int64(dists))
		}
	}
	dst = append(dst, canonical(best)...)
	sc.pq, sc.best = pq, best
	putScratch(sc)
	return dst, err
}

// rangeBatch answers every query of qs at one radius in one shared
// traversal: each node is read once for all queries that reach it,
// distance computations stay per query, and out[i] is exactly what
// rangeQuery returns for qs[i], in the same order. The guard caps the
// batch as a whole; on a stop every query keeps its matches so far.
func (e *engine) rangeBatch(qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	if err := checkArgs(qs, radius, 1); err != nil {
		return nil, err
	}
	out := make([][]Match, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	opt.Trace.StartRangeBatch(radius, len(qs))
	g := opt.guard()
	if len(qs) == 1 {
		// One query shares nothing: the sequential walk visits the same
		// nodes in the same order, without per-descent active lists.
		var err error
		out[0], err = e.rangeSearch(g, nil, qs[0], radius, opt)
		return out, err
	}
	scs := make([]*scratch, len(qs))
	active := make([]int, len(qs))
	dQP := make([]float64, len(qs))
	for i, q := range qs {
		scs[i] = e.getScratch(q)
		active[i] = i
		dQP[i] = math.NaN()
	}
	first, n := e.src.roots()
	var err error
	for r := 0; r < n && err == nil; r++ {
		err = e.batchVisit(first+int32(r), 1, active, dQP, radius, opt, g, scs, out)
	}
	for _, sc := range scs {
		putScratch(sc)
	}
	return out, err
}

// batchVisit loads node ref once and tests its entries against every
// active query. active holds the indices of the queries whose traversal
// reaches this node; dQP[j] is d(query active[j], routing object of
// this node), NaN at level 1. Entries are processed in node order and
// children recursed in entry order, exactly like rangeVisit, so each
// query's matches appear in its sequential DFS order. scs holds the
// per-query scratch.
func (e *engine) batchVisit(ref int32, level int, active []int, dQP []float64, radius float64, opt QueryOptions, g *budget.Guard, scs []*scratch, out [][]Match) error {
	if err := g.BeforeFetch(); err != nil {
		return err
	}
	nv, err := e.src.load(ref)
	if err != nil {
		return err
	}
	opt.Trace.Visit(level)
	dists := 0
	for i := nv.lo; i < nv.hi; i++ {
		bound := radius
		if !nv.leaf {
			bound += nv.radius[i]
		}
		var childActive []int
		var childD []float64
		for j, qi := range active {
			if opt.UseParentDist && !math.IsNaN(dQP[j]) && parentPrunes(dQP[j], nv.parentDist[i], bound) {
				opt.Trace.PruneParent(level)
				continue
			}
			d := e.dist(scs[qi], nv.columns, i)
			dists++
			opt.Trace.Dist(level)
			if err := g.OnDist(); err != nil {
				e.counter.AddN(int64(dists))
				return err
			}
			if d > bound {
				if !nv.leaf {
					opt.Trace.PruneRadius(level)
				}
				continue
			}
			if nv.leaf {
				out[qi] = append(out[qi], Match{Object: nv.objs[i], OID: nv.oid[i], Distance: d})
			} else {
				childActive = append(childActive, qi)
				childD = append(childD, d)
			}
		}
		if len(childActive) > 0 {
			e.counter.AddN(int64(dists))
			dists = 0
			if err := e.batchVisit(nv.child[i], level+1, childActive, childD, radius, opt, g, scs, out); err != nil {
				return err
			}
		}
	}
	e.counter.AddN(int64(dists))
	return nil
}

// nnBatch answers a k-NN batch: the best-first searches run per query
// (the dynamic search radius is inherently per-query state) over one
// node memo, so each node is read — and, in paged mode, decoded — at
// most once per batch and out[i] is bit-identical to nnQuery for qs[i].
// The guard caps the batch as a whole: on a stop, finished queries keep
// their complete results, the in-flight query returns its best-so-far,
// and queries not yet started return nil. Memory is O(distinct nodes
// the batch visits).
func (e *engine) nnBatch(qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	if err := checkArgs(qs, 0, k); err != nil {
		return nil, err
	}
	out := make([][]Match, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	opt.Trace.StartNNBatch(k, len(qs))
	g := opt.guard()
	var memo map[int32]nodeView
	if len(qs) > 1 {
		memo = make(map[int32]nodeView) // one search reads each node once anyway
	}
	for i, q := range qs {
		var err error
		if out[i], err = e.nnSearch(g, nil, q, k, math.Inf(1), opt, memo); err != nil {
			return out, err
		}
	}
	return out, nil
}
