package mtree

import (
	"context"
	"math"

	"mcost/internal/budget"
	"mcost/internal/metric"
	"mcost/internal/obs"
	"mcost/internal/pager"
)

// QueryBudget caps one query's node reads and distance computations;
// see QueryOptions.Budget. The zero value is unlimited.
type QueryBudget = budget.Budget

// ErrBudgetExceeded is the sentinel for budget-stopped queries (match
// with errors.Is). A query stopped by its budget still returns the
// partial result set accumulated before the stop.
var ErrBudgetExceeded = budget.ErrExceeded

// QueryOptions tunes query execution.
type QueryOptions struct {
	// UseParentDist enables the M-tree's triangle-inequality
	// optimization: an entry whose parent distance proves it cannot
	// qualify is skipped without computing its distance. The 1998 cost
	// model deliberately ignores this optimization (footnote 2), so
	// model-validation experiments run with it off; real workloads want
	// it on.
	UseParentDist bool
	// Trace, when non-nil, records the query's level-resolved cost
	// profile: node visits, distance computations, and pruning outcomes
	// per level (root = 1), attributed to the parent-distance or
	// covering-radius lemma. A nil Trace costs nothing (each recording
	// call is an inlined nil check; see BenchmarkRangeObsOverhead). A
	// Trace must not be shared by concurrent queries — give each query
	// its own and obs.Trace.Merge them in query order.
	Trace *obs.Trace
	// Budget caps the node reads and distance computations of the
	// query, or of a batch as a whole. Seed it from the cost model's
	// prediction times a slack factor to make the model gate its own
	// queries.
	Budget QueryBudget
	// Ctx cancels the query (nil = background). Ctx and the node cap
	// are checked before each node fetch, the distance cap at each
	// distance computation: a query that would exceed its budget stops
	// with a typed error matching ErrBudgetExceeded, a canceled or
	// expired context surfaces its context error, and in both cases the
	// matches found before the stop come back alongside the error — a
	// valid partial result (every match is a true object at its true
	// distance; completeness is what was given up). Every entry point
	// honors both; with neither set the guard is nil and costs nothing.
	Ctx context.Context
}

// guard returns the budget and context guard of one query or batch —
// nil, and free, when neither can trip.
func (opt QueryOptions) guard() *budget.Guard { return budget.NewGuard(opt.Ctx, opt.Budget) }

// Match is one query result.
type Match struct {
	Object   metric.Object
	OID      uint64
	Distance float64
}

// engine picks the node source queries run against: the frozen arena
// when there is one, else the node store.
func (t *Tree) engine() *engine {
	if t.arena != nil {
		return &t.arena.engine
	}
	return &t.eng
}

// roots and load make the node store a nodeSource: a node read is one
// counted fetch (and, in paged mode, one decode) plus the node's
// transposed entries — built once per stored node in memory mode, once
// per decode in paged mode.
func (t *Tree) roots() (int32, int) {
	if t.root == pager.InvalidPage {
		return 0, 0
	}
	return int32(t.root), 1
}

func (t *Tree) load(ref int32) (nodeView, error) {
	n, err := t.fetch(pager.PageID(ref))
	if err != nil {
		return nodeView{}, err
	}
	c := n.cols.Load()
	if c == nil {
		c = n.transpose()
		n.cols.Store(c)
	}
	return nodeView{columns: c, leaf: n.leaf, hi: int32(len(n.entries))}, nil
}

// Range returns all objects within radius of q, in unspecified order.
func (t *Tree) Range(q metric.Object, radius float64, opt QueryOptions) ([]Match, error) {
	return t.engine().rangeQuery(nil, q, radius, opt)
}

// NN returns the k nearest neighbors of q ordered by increasing
// distance, using the optimal best-first branch-and-bound algorithm: a
// priority queue of subtrees ordered by their distance lower bound, with
// the dynamic search radius set by the k-th best match so far. It
// accesses only nodes whose region intersects the final NN(q,k) ball.
func (t *Tree) NN(q metric.Object, k int, opt QueryOptions) ([]Match, error) {
	return t.NNWithStop(q, k, math.Inf(1), opt)
}

// NNWithStop is NN with an additional stop radius: subtrees whose
// distance lower bound exceeds stopRadius are never expanded, even if
// the current k-th candidate is farther. With stopRadius = d+ it is
// exactly NN; with a stopRadius derived from the cost model's k-NN
// distance quantile (see core.MTreeModel.NNDistQuantile) it implements
// probably-approximately-correct NN: the true neighbors are missed only
// in the low-probability tail where nn_k exceeds the chosen quantile.
func (t *Tree) NNWithStop(q metric.Object, k int, stopRadius float64, opt QueryOptions) ([]Match, error) {
	return t.engine().nnQuery(nil, q, k, stopRadius, opt)
}

// Batched query execution. RangeBatch and NNBatch run a slice of
// queries in one shared traversal: each node is fetched (and decoded,
// in paged mode) at most once per batch and its entries are tested
// against every still-active query, so node reads amortize across the
// batch while distance computations stay per-query. Every query's
// pruning decisions depend only on its own state, so per-query results
// are bit-identical to running the queries one by one through
// Range/NN — the equivalence matrix in batch_test.go pins this at every
// batch size, and in paged mode TestBatchPagedEquivalence pins it
// against the memory tree.
//
// Batches share the Tree's read-only concurrency contract: a batch must
// not run concurrently with mutation, and a QueryOptions.Trace or
// Budget belongs to one batch at a time. A traced batch records each
// node visit once per batch (the amortized accounting) and each
// distance computation per query; Trace.Batches counts executions. An
// empty batch does no work and records no trace. A Budget caps the
// batch as a whole; on a stop RangeBatch returns every query's partial
// matches, and NNBatch keeps finished queries complete, the in-flight
// query's best-so-far, and nil for queries not yet started.

// RangeBatch returns, for each query in qs, all objects within radius
// of it — out[i] is exactly what Range(qs[i], radius, opt) returns, in
// the same order, but the batch traverses the tree once, fetching each
// node a single time for all queries that need it.
func (t *Tree) RangeBatch(qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error) {
	return t.engine().rangeBatch(qs, radius, opt)
}

// NNBatch returns, for each query in qs, its k nearest neighbors,
// closest first — out[i] is bit-identical to NN(qs[i], k, opt). The
// batch shares one node memo: the best-first searches run per query
// (the dynamic search radius is inherently per-query state) but a node
// fetched for one query is served from memory to every later query in
// the batch, so each node is read and decoded at most once per batch.
func (t *Tree) NNBatch(qs []metric.Object, k int, opt QueryOptions) ([][]Match, error) {
	return t.engine().nnBatch(qs, k, opt)
}

// LinearScanRange is the baseline: scan all objects, computing every
// distance. It reports matches plus the distances computed (= n) and the
// page reads a sequential scan of packed leaves would cost.
func LinearScanRange(objs []metric.Object, space *metric.Space, q metric.Object, radius float64) []Match {
	var out []Match
	for i, o := range objs {
		if d := space.Distance(q, o); d <= radius {
			out = append(out, Match{Object: o, OID: uint64(i), Distance: d})
		}
	}
	return out
}

// LinearScanNN is the k-NN baseline over a plain object slice: the
// first k of all objects in (distance, OID) order.
func LinearScanNN(objs []metric.Object, space *metric.Space, q metric.Object, k int) []Match {
	all := canonical(LinearScanRange(objs, space, q, math.Inf(1)))
	return all[:min(k, len(all))]
}
