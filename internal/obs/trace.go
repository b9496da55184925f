// Package obs is the observability layer under the query engines: a
// per-query Trace recording node visits, distance computations, and
// pruning outcomes resolved by tree level, plus a lightweight metrics
// Registry of named counters and fixed-bin histograms.
//
// Two constraints shape the package:
//
//   - Zero cost when disabled. Every Trace method is nil-safe: query
//     code calls opt.Trace.Visit(level) unconditionally, and a nil
//     trace reduces each call to an inlined nil check (verified by
//     BenchmarkRangeObsOverhead in internal/mtree).
//
//   - Determinism under parallelism. A Trace holds plain (non-atomic)
//     integers and belongs to exactly one in-flight query; a parallel
//     batch gives each query its own Trace and merges them in query
//     order afterwards. All merge operations — Trace.Merge, histogram
//     and counter merges — sum integers, so merged results are
//     bit-identical at any worker count (the same discipline
//     internal/parallel documents for estimation shards).
package obs

import "fmt"

// LevelTrace is one tree level's share of a traced query. Levels follow
// the paper's convention: the root is level 1, leaves are level Height.
// Pruning counters are attributed to the level of the node whose entries
// were examined, i.e. a prune at level l saved an access at level l+1
// (or a leaf-entry distance at level l).
type LevelTrace struct {
	Level int `json:"level"`
	// Nodes is the number of nodes visited (fetched) at this level — in
	// paged mode, exactly the page reads attributed to this level.
	Nodes int64 `json:"nodes"`
	// Dists is the number of distance computations performed while
	// examining this level's entries.
	Dists int64 `json:"dists"`
	// ParentPruned counts entries skipped by the parent-distance lemma
	// |d(q,p) - d(o,p)| > bound, which saves the distance computation.
	ParentPruned int64 `json:"parent_pruned"`
	// RadiusPruned counts internal entries whose subtree was excluded by
	// the covering-radius lemma d(q,o) > r_q + r_c after the distance was
	// computed. For the vp-tree this counts child rings excluded by the
	// cutoff test (the Eq. 19 lemma), the structure's analogue.
	RadiusPruned int64 `json:"radius_pruned"`
}

// Trace accumulates the level-resolved cost profile of one similarity
// query — or, after Merge, of an ordered batch. The zero value is ready
// to use; a nil *Trace disables all recording.
//
// A Trace is deliberately not synchronized: it must be owned by a single
// goroutine while a query runs. Reusing one Trace across a sequential
// batch accumulates; parallel batches use one Trace per query and Merge.
type Trace struct {
	// Kind is "range", "nn", or "mixed" after merging different shapes.
	Kind string `json:"kind,omitempty"`
	// Radius is the range-query radius (range traces only).
	Radius float64 `json:"radius,omitempty"`
	// K is the neighbor count (nn traces only).
	K int `json:"k,omitempty"`
	// Queries is the number of queries accumulated into this trace.
	Queries int64 `json:"queries"`
	// Batches is the number of batched executions accumulated. In a
	// batched trace Nodes counts each node once per batch (fetches are
	// amortized across the batch) while Dists stays per-query, so
	// Queries/Batches ratios expose the amortization factor directly.
	Batches int64 `json:"batches,omitempty"`
	// Levels is the per-level breakdown, index = level-1.
	Levels []LevelTrace `json:"levels"`
	// Fanouts holds one record per query of the batch, in query order,
	// on a fan-out engine's dispatch trace; nil everywhere else.
	Fanouts []Fanout `json:"-"`
}

// Fanout is what one query's scatter over remote shards did: the shards
// the pivot lower bound proved empty, how many shards it called, the
// ones that failed every attempt, and how many calls fired a hedge.
type Fanout struct {
	Skipped []int
	Queried int
	Failed  []int
	Hedged  int
}

// NewTrace returns an empty enabled trace.
func NewTrace() *Trace { return &Trace{} }

// at returns the counters for level (1-based), growing the slice.
func (t *Trace) at(level int) *LevelTrace {
	for len(t.Levels) < level {
		t.Levels = append(t.Levels, LevelTrace{Level: len(t.Levels) + 1})
	}
	return &t.Levels[level-1]
}

// StartRange marks the beginning of one range query with the given
// radius. Query engines call it on entry; callers never need to.
func (t *Trace) StartRange(radius float64) {
	if t == nil {
		return
	}
	t.start("range")
	t.Radius = radius
}

// StartNN marks the beginning of one k-NN query.
func (t *Trace) StartNN(k int) {
	if t == nil {
		return
	}
	t.start("nn")
	t.K = k
}

// StartRangeBatch marks the beginning of one batched range execution
// over n queries: the batch counts once, the queries n times.
func (t *Trace) StartRangeBatch(radius float64, n int) {
	if t == nil {
		return
	}
	t.startBatch("range", n)
	t.Radius = radius
}

// StartNNBatch marks the beginning of one batched k-NN execution over n
// queries.
func (t *Trace) StartNNBatch(k, n int) {
	if t == nil {
		return
	}
	t.startBatch("nn", n)
	t.K = k
}

func (t *Trace) startBatch(kind string, n int) {
	t.Queries += int64(n)
	t.Batches++
	if t.Kind == "" {
		t.Kind = kind
	} else if t.Kind != kind {
		t.Kind = "mixed"
	}
}

func (t *Trace) start(kind string) {
	t.Queries++
	if t.Kind == "" {
		t.Kind = kind
	} else if t.Kind != kind {
		t.Kind = "mixed"
	}
}

// Visit records one node access at the given level (root = 1).
func (t *Trace) Visit(level int) {
	if t == nil {
		return
	}
	t.at(level).Nodes++
}

// Dist records one distance computation while examining entries of a
// node at the given level.
func (t *Trace) Dist(level int) {
	if t == nil {
		return
	}
	t.at(level).Dists++
}

// PruneParent records one entry skipped by the parent-distance lemma.
func (t *Trace) PruneParent(level int) {
	if t == nil {
		return
	}
	t.at(level).ParentPruned++
}

// PruneRadius records one subtree excluded by the covering-radius (or
// ring) lemma.
func (t *Trace) PruneRadius(level int) {
	if t == nil {
		return
	}
	t.at(level).RadiusPruned++
}

// TotalNodes sums node visits over all levels.
func (t *Trace) TotalNodes() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for i := range t.Levels {
		n += t.Levels[i].Nodes
	}
	return n
}

// TotalDists sums distance computations over all levels.
func (t *Trace) TotalDists() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for i := range t.Levels {
		n += t.Levels[i].Dists
	}
	return n
}

// Merge accumulates other into t level-wise. Because every field is an
// integer count, merging a set of traces yields identical results in any
// order; batch code still merges in query order so the convention is
// uniform with float reductions elsewhere. Merging a nil other is a
// no-op; merging into a nil t is an error the caller avoided by
// construction (Merge on nil receiver is a no-op too).
func (t *Trace) Merge(other *Trace) {
	if t == nil || other == nil {
		return
	}
	if other.Kind != "" {
		if t.Kind == "" {
			t.Kind, t.Radius, t.K = other.Kind, other.Radius, other.K
		} else if t.Kind != other.Kind || t.Radius != other.Radius || t.K != other.K {
			t.Kind = "mixed"
		}
	}
	t.Queries += other.Queries
	t.Batches += other.Batches
	for i := range other.Levels {
		l := t.at(i + 1)
		o := &other.Levels[i]
		l.Nodes += o.Nodes
		l.Dists += o.Dists
		l.ParentPruned += o.ParentPruned
		l.RadiusPruned += o.RadiusPruned
	}
}

// Reset clears the trace for reuse.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	*t = Trace{}
}

// String summarizes the trace totals for diagnostics.
func (t *Trace) String() string {
	if t == nil {
		return "trace(nil)"
	}
	return fmt.Sprintf("trace(%s, %d queries, %d levels, %d nodes, %d dists)",
		t.Kind, t.Queries, len(t.Levels), t.TotalNodes(), t.TotalDists())
}
