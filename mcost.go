// Package mcost is a cost-model toolkit for similarity queries in metric
// spaces, implementing Ciaccia, Patella & Zezula, "A Cost Model for
// Similarity Queries in Metric Spaces" (PODS 1998).
//
// It bundles a full M-tree (paged, dynamic, balanced metric access
// method with bulk loading and optimal k-NN search), a vantage-point
// tree, distance-distribution estimation, and the paper's cost models:
// given only the distance distribution F of a dataset and compact tree
// statistics, the models predict the I/O (node reads) and CPU (distance
// computations) costs of range and k-nearest-neighbor queries, usually
// within ~10%.
//
// The five-line workflow:
//
//	space := mcost.VectorSpace("L2", 8)
//	idx, _ := mcost.Build(space, objects, mcost.Options{})
//	matches, _ := idx.NN(query, 10)
//	predicted := idx.PredictNN(10)      // before running anything
//	fmt.Println(predicted.Nodes, predicted.Dists)
//
// Everything deeper — promotion policies, paged storage, homogeneity
// indices, the vp-tree model, node-size tuning — is exposed through the
// same package; see the examples directory.
package mcost

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"mcost/internal/advisor"
	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/pager"
	"mcost/internal/recal"
)

// Object is any value a metric space can compare (metric.Vector values
// or strings for the built-in spaces).
type Object = metric.Object

// Vector is a point in a D-dimensional real space.
type Vector = metric.Vector

// Space describes a bounded metric space: a distance function plus its
// finite distance bound d+.
type Space = metric.Space

// Match is one query result: the object, its insertion-order OID, and
// its distance from the query.
type Match = mtree.Match

// CostEstimate is a predicted query cost: expected node reads (I/O) and
// distance computations (CPU).
type CostEstimate = core.CostEstimate

// DiskParams models a disk for combined-cost tuning (Section 4.1 of the
// paper): a node read costs PosMS + TransMSPerKB·NS, a distance DistMS.
type DiskParams = core.DiskParams

// VectorSpace returns a bounded metric space over the unit hypercube
// [0,1]^dim for name "L1", "L2", or "Linf".
func VectorSpace(name string, dim int) *Space { return metric.VectorSpace(name, dim) }

// EditSpace returns the space of strings up to maxLen bytes under the
// Levenshtein metric, d+ = maxLen.
func EditSpace(maxLen int) *Space { return metric.EditSpace(maxLen) }

// Options configures Build.
type Options struct {
	// PageSize is the M-tree node size in bytes (default 4096, as in
	// the paper's evaluation).
	PageSize int
	// Incremental inserts objects one by one instead of bulk loading.
	// Bulk loading (the default) matches the paper's setup and builds a
	// better tree with fewer distance computations.
	Incremental bool
	// HistogramBins overrides the distance-distribution resolution
	// (default: 100 bins, or one per integer distance for discrete
	// metrics).
	HistogramBins int
	// SamplePairs caps the object pairs sampled to estimate F
	// (default 200,000).
	SamplePairs int
	// Seed drives all sampling.
	Seed int64
	// Workers bounds the goroutines used to estimate F (0 =
	// runtime.NumCPU()). The estimate is bit-identical for any worker
	// count with the same Seed.
	Workers int
	// Storage selects the fault-tolerant paged storage stack; the zero
	// value keeps the fast in-memory node store.
	Storage StorageOptions
	// Arena freezes the built tree into the flat columnar node layout
	// for query serving (see ArenaOptions).
	Arena ArenaOptions
}

// ArenaOptions opts the built index into the arena read path: the tree
// is frozen into a flat columnar layout (routing radii, parent
// distances, child pointers, and objects in typed slabs) that queries
// traverse with batched distance kernels and zero per-query heap
// allocations. Results, traces, and cost counters are bit-identical to
// the store-backed traversal. Insert and Delete thaw the arena — the
// index transparently falls back to the store path until it is frozen
// again.
type ArenaOptions struct {
	// Enabled freezes the tree at Build. Ignored when fault injection
	// is configured (faults target the paged read path, which the
	// arena would bypass).
	Enabled bool
	// Mmap serves the frozen slabs from a memory-mapped file, so
	// concurrent shard goroutines share read-only pages without the
	// page-cache mutex. Vector, edit, and hamming spaces only.
	Mmap bool
	// Path is the slab file for Mmap (empty = a private unlinked temp
	// file). Sharded builds derive one file per shard from it.
	Path string
}

// Index is a built M-tree together with its fitted cost model. Its
// serving surface — planning, pricing, engine modes, traced batches —
// is the one ShardedIndex shares (surface.go).
type Index struct {
	surface
	tree  *mtree.Tree
	stack *pager.Stack // non-nil only with StorageOptions enabled
	f     *histogram.Histogram
	stats *mtree.Stats
	model *core.MTreeModel
	// rc, when non-nil, keeps the model live under writes: F̂ updates on
	// every Insert/Delete, bias correction from recent traces, periodic
	// refits. Enabled by EnableRecalibration.
	rc     *recal.Recalibrator
	stages BuildStages
}

// indexTree is Index's tree side: the M-tree priced by L-MCM,
// bias-corrected and fed back to the recalibrator when one is enabled.
type indexTree struct{ ix *Index }

func (t indexTree) PriceRange(radius float64) CostEstimate { return t.ix.PredictRangeLevel(radius) }
func (t indexTree) PriceNN(k int) CostEstimate             { return t.ix.PredictNNLevel(k) }

// PriceNNPrefix is PriceNN(k) for k = 1..K from one pass of the model
// (see advisor.Predictor).
func (t indexTree) PriceNNPrefix(K int) []CostEstimate {
	est := t.ix.model.NNLPrefix(K)
	if t.ix.rc != nil {
		t.ix.rc.CorrectNNs(est)
	}
	return est
}

// RangeBatch runs the batch on the tree. With recalibration enabled it
// executes under a private trace, so the observation covers exactly this
// dispatch whatever the caller's trace already holds, and feeds back
// clean executions only: a budget- or context-truncated traversal
// observed less work than the full query costs, which would teach the
// window a downward bias that admission then amplifies.
func (t indexTree) RangeBatch(ctx context.Context, qs []Object, radius float64, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	ix := t.ix
	if ix.rc == nil {
		return ix.tree.RangeBatch(qs, radius, mtree.QueryOptions{UseParentDist: true, Budget: b, Ctx: ctx, Trace: tr})
	}
	own := obs.NewTrace()
	sets, err := ix.tree.RangeBatch(qs, radius, mtree.QueryOptions{UseParentDist: true, Budget: b, Ctx: ctx, Trace: own})
	tr.Merge(own)
	if err == nil {
		ix.rc.ObserveRange(ix.model.RangeLByLevel(radius), t.PriceRange(radius), own)
	}
	return sets, err
}

// NNBatch is RangeBatch for k-NN.
func (t indexTree) NNBatch(ctx context.Context, qs []Object, k int, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	ix := t.ix
	if ix.rc == nil {
		return ix.tree.NNBatch(qs, k, mtree.QueryOptions{UseParentDist: true, Budget: b, Ctx: ctx, Trace: tr})
	}
	own := obs.NewTrace()
	sets, err := ix.tree.NNBatch(qs, k, mtree.QueryOptions{UseParentDist: true, Budget: b, Ctx: ctx, Trace: own})
	tr.Merge(own)
	if err == nil {
		ix.rc.ObserveNN(ix.model.NNL(k), t.PriceNN(k), own)
	}
	return sets, err
}

func (t indexTree) Costs() (int64, int64) { return t.ix.tree.NodeReads(), t.ix.tree.DistanceCount() }
func (t indexTree) ResetCosts()           { t.ix.tree.ResetCounters() }

// BuildStages is where a build's time went, stage by stage — what
// mcost-serve prints at start-up and what the benchmark's per-layer rows
// (mtree.bulkload_ms, distdist.estimate_ms, core.model_fit_ms,
// advisor.profile_ms, mtree.freeze_ms) time from outside. On a
// ShardedIndex every stage but Profile is summed over the shards, which
// build in parallel: the sum can exceed the time that passed.
type BuildStages struct {
	Bulkload time.Duration // tree construction: bulk load, or the inserts of an Incremental build
	Estimate time.Duration // sampling the distance distribution F̂
	Model    time.Duration // tree statistics and model fit
	Profile  time.Duration // scan engine and hardness profile
	Freeze   time.Duration // arena freeze; 0 with the arena off
}

func (s BuildStages) String() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("bulkload %.1f ms, estimate %.1f ms, model %.1f ms, profile %.1f ms, freeze %.1f ms",
		ms(s.Bulkload), ms(s.Estimate), ms(s.Model), ms(s.Profile), ms(s.Freeze))
}

// BuildStages returns where Build's time went.
func (ix *Index) BuildStages() BuildStages { return ix.stages }

// Build indexes the objects and fits the cost model: it constructs the
// M-tree (bulk-loaded unless Incremental), estimates the distance
// distribution F̂ from sampled pairs, and collects the tree statistics
// the models need. The returned Index answers both real queries and
// cost predictions.
func Build(space *Space, objects []Object, opt Options) (*Index, error) {
	if space == nil {
		return nil, errors.New("mcost: nil space")
	}
	if len(objects) < 2 {
		return nil, fmt.Errorf("mcost: need at least 2 objects, got %d", len(objects))
	}
	mo, stack, err := buildStorage(space, objects[0], opt)
	if err != nil {
		return nil, err
	}
	clock := obs.StartStopwatch()
	tree, err := mtree.New(mo)
	if err != nil {
		return nil, err
	}
	if opt.Incremental {
		err = tree.InsertAll(objects)
	} else {
		err = tree.BulkLoad(objects)
	}
	if err != nil {
		return nil, err
	}
	bulkload := clock.Lap()
	ix, err := finishIndex(space, tree, objects, opt)
	if err != nil {
		return nil, err
	}
	ix.stages.Bulkload = bulkload
	ix.stack = stack
	if opt.Arena.Enabled && opt.Storage.Faults == nil {
		clock.Lap()
		if err := tree.FreezeArena(mtree.ArenaConfig{Mmap: opt.Arena.Mmap, Path: opt.Arena.Path}); err != nil {
			return nil, fmt.Errorf("mcost: freezing arena: %w", err)
		}
		ix.stages.Freeze = clock.Lap()
	}
	return ix, nil
}

func finishIndex(space *Space, tree *mtree.Tree, objects []Object, opt Options) (*Index, error) {
	var stages BuildStages
	clock := obs.StartStopwatch()
	stats, err := tree.CollectStats()
	if err != nil {
		return nil, err
	}
	stages.Model = clock.Lap()
	ds := &dataset.Dataset{Name: "indexed", Space: space, Objects: objects}
	f, err := distdist.Estimate(ds, distdist.Options{
		Bins:     opt.HistogramBins,
		MaxPairs: opt.SamplePairs,
		Seed:     opt.Seed + 1,
		Workers:  opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	stages.Estimate = clock.Lap()
	model, err := core.NewMTreeModel(f, stats)
	if err != nil {
		return nil, err
	}
	stages.Model += clock.Lap()
	ix := &Index{tree: tree, f: f, stats: stats, model: model}
	if ix.surface, err = newSurface(space, objects, tree.PageSize(), indexTree{ix}, advisor.EngineTree, f); err != nil {
		return nil, err
	}
	stages.Profile = clock.Lap()
	ix.stages = stages
	return ix, nil
}

// Size returns the number of indexed objects.
func (ix *Index) Size() int { return ix.tree.Size() }

// Height returns the number of tree levels.
func (ix *Index) Height() int { return ix.tree.Height() }

// NumNodes returns the number of tree nodes (pages).
func (ix *Index) NumNodes() int { return ix.tree.NumNodes() }

// PageSize returns the M-tree node size in bytes.
func (ix *Index) PageSize() int { return ix.tree.PageSize() }

// Range returns all objects within radius of q. The parent-distance
// optimization is enabled: real queries should be as fast as possible.
func (ix *Index) Range(q Object, radius float64) ([]Match, error) {
	if err := ix.check(q); err != nil {
		return nil, err
	}
	return ix.tree.Range(q, radius, mtree.QueryOptions{UseParentDist: true})
}

// NN returns the k nearest neighbors of q, closest first.
func (ix *Index) NN(q Object, k int) ([]Match, error) {
	if err := ix.check(q); err != nil {
		return nil, err
	}
	return ix.tree.NN(q, k, mtree.QueryOptions{UseParentDist: true})
}

// PredictRange predicts range-query costs with the node-based model
// N-MCM (Eq. 6-7 of the paper). The prediction models a search without
// the parent-distance optimization, so it upper-bounds what Range
// performs; see PredictRangeLevel for the cheaper level-based variant.
func (ix *Index) PredictRange(radius float64) CostEstimate {
	if ix.rc != nil {
		return ix.rc.CorrectTotal(ix.model.RangeN(radius))
	}
	return ix.model.RangeN(radius)
}

// PredictRangeLevel predicts range-query costs with the level-based
// model L-MCM (Eq. 15-16), which needs only per-level statistics. With
// recalibration enabled the per-level prediction is scaled by the bias
// factors learned from recent traces. It is the tree side's price: what
// PriceRange charges and the advisor compares against the scan.
func (ix *Index) PredictRangeLevel(radius float64) CostEstimate {
	if ix.rc != nil {
		return ix.rc.CorrectRange(ix.model.RangeLByLevel(radius))
	}
	return ix.model.RangeL(radius)
}

// PredictSelectivity predicts the number of objects a range query
// returns: n·F(radius) (Eq. 8).
func (ix *Index) PredictSelectivity(radius float64) float64 {
	return ix.model.RangeObjects(radius)
}

// PredictNN predicts k-NN query costs with the node-based model by
// integrating range costs over the k-th-neighbor distance distribution
// (Eq. 9-14 generalized to any k). With recalibration enabled the
// aggregate bias learned from recent traces is applied.
func (ix *Index) PredictNN(k int) CostEstimate {
	if ix.rc != nil {
		return ix.rc.CorrectNN(ix.model.NNN(k))
	}
	return ix.model.NNN(k)
}

// PredictNNLevel is the level-based variant (Eq. 17-18), the tree
// side's k-NN price.
func (ix *Index) PredictNNLevel(k int) CostEstimate {
	if ix.rc != nil {
		return ix.rc.CorrectNN(ix.model.NNL(k))
	}
	return ix.model.NNL(k)
}

// ExpectedNNDistance predicts the distance of the k-th nearest neighbor
// of a random query (Eq. 11).
func (ix *Index) ExpectedNNDistance(k int) float64 { return ix.model.ExpectedNNDist(k) }

// DistanceDistribution exposes the estimated F̂: F(x) is the fraction of
// object pairs within distance x.
func (ix *Index) DistanceDistribution() func(x float64) float64 {
	return ix.f.CDF
}

// PredictTotalMS combines a prediction into milliseconds under the disk
// parameters, using this index's node size.
func (ix *Index) PredictTotalMS(est CostEstimate, disk DiskParams) float64 {
	return disk.TotalMS(est, ix.tree.PageSize())
}

// PaperDiskParams returns the disk parameters of the paper's Figure
// 5(b): 10 ms positioning, 1 ms/KB transfer, 5 ms per distance.
func PaperDiskParams() DiskParams { return core.PaperDiskParams() }

// Delete removes an object by OID. The caller supplies the object value
// (the tree routes by distance, not by key). After heavy churn the cost
// model's statistics grow stale — covering radii are not tightened on
// deletion — so call RefreshModel before relying on predictions again,
// or enable recalibration and let the index refresh itself.
func (ix *Index) Delete(obj Object, oid uint64) error {
	if err := ix.tree.Delete(obj, oid); err != nil {
		return err
	}
	ix.scan.Remove(oid)
	if ix.rc != nil {
		ix.rc.ObserveDelete(obj)
		return ix.maybeRecalRefresh()
	}
	return nil
}

// RefreshModel re-collects the tree statistics and refits the cost
// model after structural churn (inserts/deletes since Build). The
// distance distribution F̂ is kept: deletions and inserts drawn from the
// same data distribution do not change it.
func (ix *Index) RefreshModel() error {
	stats, err := ix.tree.CollectStats()
	if err != nil {
		return err
	}
	model, err := core.NewMTreeModel(ix.f, stats)
	if err != nil {
		return err
	}
	ix.stats = stats
	ix.model = model
	ix.refreshProfile(ix.f)
	return nil
}

// Insert adds one object after Build and returns its OID. Refresh the
// model after bulk churn, or enable recalibration and let the index
// refresh itself.
func (ix *Index) Insert(obj Object) (uint64, error) {
	oid := ix.tree.NextOID()
	if err := ix.tree.Insert(obj); err != nil {
		return 0, err
	}
	ix.scan.Insert(obj, oid)
	if ix.rc != nil {
		ix.rc.ObserveInsert(obj)
		if err := ix.maybeRecalRefresh(); err != nil {
			return oid, err
		}
	}
	return oid, nil
}

// EnableRecalibration attaches a live recalibrator: every subsequent
// Insert/Delete updates F̂ via reservoir-sampled distances, traced batch
// executions feed the per-level bias window, Price*/Predict* return
// bias-corrected estimates, and the model is refit from the blended F̂
// plus fresh tree statistics every cfg.RefreshEvery writes. sample
// primes the distance-sampling reservoir with live objects — pass the
// build dataset (or any subset); an empty sample fills from inserts.
//
// The index is not safe for writes concurrent with reads; the serving
// layer serializes writes behind an RWMutex. The recalibrator itself is
// concurrency-safe.
func (ix *Index) EnableRecalibration(cfg recal.Config, sample []Object) error {
	rc, err := recal.New(cfg, ix.f, ix.space, ix.tree.Size(), sample)
	if err != nil {
		return err
	}
	ix.rc = rc
	return nil
}

// RecalStats snapshots the recalibrator's observable state; ok is false
// when recalibration is not enabled.
func (ix *Index) RecalStats() (recal.Stats, bool) {
	if ix.rc == nil {
		return recal.Stats{}, false
	}
	return ix.rc.Stats(), true
}

// maybeRecalRefresh refits the model from the recalibrator's blended F̂
// and fresh tree statistics when enough writes have accumulated.
func (ix *Index) maybeRecalRefresh() error {
	if !ix.rc.NeedRefresh() {
		return nil
	}
	stats, err := ix.tree.CollectStats()
	if err != nil {
		return fmt.Errorf("mcost: recalibration refresh: %w", err)
	}
	f, err := ix.rc.Histogram()
	if err != nil {
		return fmt.Errorf("mcost: recalibration refresh: %w", err)
	}
	model, err := core.NewMTreeModel(f, stats)
	if err != nil {
		return fmt.Errorf("mcost: recalibration refresh: %w", err)
	}
	ix.f = f
	ix.stats = stats
	ix.model = model
	ix.rc.MarkRefreshed()
	ix.refreshProfile(ix.f)
	return nil
}

// Model is a standalone fitted cost model: the JSON-serializable object
// a query optimizer keeps in its catalog, predicting costs with no
// access to the index or the data.
type Model = core.MTreeModel

// SaveModel writes the index's fitted cost model as JSON.
func (ix *Index) SaveModel(w io.Writer) error { return ix.model.Save(w) }

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// HVResult reports a homogeneity-of-viewpoints estimate.
type HVResult = distdist.HVResult

// HV estimates the homogeneity-of-viewpoints index (Definition 2) of the
// space underlying the objects: values near 1 (the paper reports > 0.98
// for all its datasets) mean the cost model's Assumption 1 holds and
// predictions are trustworthy; low values call for the multi-viewpoint
// extension.
func HV(space *Space, objects []Object, seed int64) (*HVResult, error) {
	ds := &dataset.Dataset{Name: "hv", Space: space, Objects: objects}
	return distdist.HV(ds, distdist.HVOptions{Seed: seed})
}

// TuneNodeSize builds one index per candidate node size and returns the
// size minimizing the predicted combined cost for range queries of the
// given radius under the disk parameters (Section 4.1). It returns the
// chosen size in bytes and the per-candidate predictions.
func TuneNodeSize(space *Space, objects []Object, sizes []int, radius float64, disk DiskParams, opt Options) (int, []core.TuningPoint, error) {
	if len(sizes) == 0 {
		return 0, nil, errors.New("mcost: no candidate node sizes")
	}
	points := make([]core.TuningPoint, 0, len(sizes))
	for _, ns := range sizes {
		o := opt
		o.PageSize = ns
		ix, err := Build(space, objects, o)
		if err != nil {
			return 0, nil, fmt.Errorf("mcost: node size %d: %w", ns, err)
		}
		est := ix.PredictRange(radius)
		points = append(points, core.TuningPoint{
			NodeSize: ns,
			Est:      est,
			TotalMS:  disk.TotalMS(est, ns),
		})
	}
	best, err := core.BestNodeSize(points)
	if err != nil {
		return 0, nil, err
	}
	return best.NodeSize, points, nil
}

// NNApprox returns approximately the k nearest neighbors: the best-first
// search stops at the confidence-quantile of the k-NN distance predicted
// by the cost model (Eq. 9), so with probability >= confidence the true
// k-th neighbor lies within the searched region. Lower confidence means
// fewer node reads and distance computations; confidence >= 1 degrades
// to the exact NN. This is the probably-approximately-correct use of the
// model the paper's optimizer framing invites.
func (ix *Index) NNApprox(q Object, k int, confidence float64) ([]Match, error) {
	if err := ix.check(q); err != nil {
		return nil, err
	}
	stop := ix.model.NNDistQuantile(k, confidence)
	return ix.tree.NNWithStop(q, k, stop, mtree.QueryOptions{UseParentDist: true})
}

// IndexStats summarizes the built tree for observability and reporting.
type IndexStats struct {
	// Objects is the number of indexed objects.
	Objects int
	// Nodes is the number of pages; Height the number of levels.
	Nodes  int
	Height int
	// LeafNodes and AvgLeafEntries describe the leaf level.
	LeafNodes      int
	AvgLeafEntries float64
	// AvgLeafRadius and MaxLeafRadius describe leaf region sizes, the
	// quantities the cost model derives access probabilities from.
	AvgLeafRadius float64
	MaxLeafRadius float64
	// LevelNodes lists the node count per level, root first.
	LevelNodes []int
}

// Stats reports the tree's structural statistics (from the snapshot
// taken at Build or the last RefreshModel).
func (ix *Index) Stats() IndexStats {
	out := IndexStats{
		Objects: ix.stats.Size,
		Height:  ix.stats.Height,
	}
	for _, ls := range ix.stats.Levels {
		out.LevelNodes = append(out.LevelNodes, ls.Nodes)
		out.Nodes += ls.Nodes
	}
	var leafEntries int
	for _, ns := range ix.stats.Nodes {
		if !ns.Leaf {
			continue
		}
		out.LeafNodes++
		leafEntries += ns.Entries
		out.AvgLeafRadius += ns.Radius
		if ns.Radius > out.MaxLeafRadius {
			out.MaxLeafRadius = ns.Radius
		}
	}
	if out.LeafNodes > 0 {
		out.AvgLeafEntries = float64(leafEntries) / float64(out.LeafNodes)
		out.AvgLeafRadius /= float64(out.LeafNodes)
	}
	return out
}
