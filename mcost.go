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
	"errors"
	"fmt"
	"io"
	"time"

	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/pager"
	"mcost/internal/recal"
	"mcost/internal/shard"
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
// again. On vector spaces the coordinate slab is the index's only copy
// of each vector: the index keeps no reference to the caller's vectors
// but the first and the shard pivots, and a returned Match.Object is a
// capacity-capped view into the slab, which must not be written. It
// stays a struct, not a bool on Options, because bench/ sets it.
type ArenaOptions struct {
	// Enabled freezes the tree at Build. Ignored when fault injection
	// is configured (faults target the paged read path, which the
	// arena would bypass).
	Enabled bool
}

// Index is a built metric index together with its fitted cost model:
// S ≥ 1 M-trees (shards, internal/shard), each with its own distance
// distribution F̂ and L-MCM model, behind one serving surface
// (surface.go). Build makes one tree; BuildSharded partitions the
// objects across S of them, whose queries fan out in parallel and merge
// deterministically — k-NN visits shards best-first in cost-model order
// and skips those whose lower bound cannot beat the running k-th
// distance. OIDs are global either way: the object's index in the slice
// given to the build. An Index supports concurrent read-only queries.
type Index struct {
	space *Space
	// sample is one indexed object, kept as the reference shape for
	// query validation (dimension, bit-string length, object type).
	sample  Object
	set     *shard.Set
	stacks  []*pager.Stack // per shard; nil entries when storage is off
	workers int
	// f is the dataset-level F̂: the mass-weighted merge of the shard
	// histograms, with no extra distance sampling.
	f *histogram.Histogram
	// scan is the linear-scan engine over the same objects, with the same
	// OIDs (write-through on Insert/Delete); mode selects which engine
	// the priced/batched surface uses.
	scan    *mtree.Scan
	profile HardnessProfile
	mode    EngineMode
	// profileTime is what building the scan and the profile took.
	profileTime time.Duration
}

// tree is the index's tree side as the advisor prices it — the shard
// set's summed L-MCM prices, whatever the engine mode.
type tree struct{ *shard.Set }

func (t tree) PriceRange(radius float64) CostEstimate { return t.PredictRange(radius) }
func (t tree) PriceNNPrefix(K int) []CostEstimate     { return t.PredictNNPrefix(K) }

// PriceNN reads the shards' price tables. One tree is priced cold,
// NNL(k) bias-corrected under recalibration: the values are equal, but
// the table would move the benchmark's tree-l2 range latency through its
// closed-loop coupling (DESIGN.md, "What pricing costs"), so that switch
// waits for the benchmark re-cut.
func (t tree) PriceNN(k int) CostEstimate {
	if sh := t.Shards(); len(sh) == 1 { // S = 1: cold NNL(k) until the benchmark re-cut
		if rc := sh[0].Recal(); rc != nil {
			return rc.CorrectNN(sh[0].Model.NNL(k))
		}
		return sh[0].Model.NNL(k)
	}
	return t.PredictNN(k)
}

// BuildStages is where a build's time went, stage by stage — what
// mcost-serve prints at start-up and what the benchmark's per-layer rows
// (mtree.bulkload_ms, distdist.estimate_ms, core.model_fit_ms,
// advisor.profile_ms, mtree.freeze_ms) time from outside. Every stage
// but Profile is summed over the shards, which build in parallel: the
// sum can exceed the time that passed.
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

// BuildStages returns where the build's time went.
func (ix *Index) BuildStages() BuildStages {
	st := BuildStages{Profile: ix.profileTime}
	for _, sh := range ix.set.Shards() {
		st.Bulkload += sh.Stages.Bulkload
		st.Estimate += sh.Stages.Estimate
		st.Model += sh.Stages.Model
		st.Freeze += sh.Stages.Freeze
	}
	return st
}

// ShardAssignment selects how BuildSharded distributes objects across
// shards: round-robin (balanced, no pruning) or pivot-based (metric
// balls, enables cost-based shard skipping).
type ShardAssignment = shard.Assignment

// Shard assignment strategies.
const (
	// ShardRoundRobin spreads objects uniformly: object i goes to shard
	// i mod S. Every query visits every shard.
	ShardRoundRobin = shard.RoundRobin
	// ShardPivot clusters objects around S greedily-chosen pivots, so
	// each shard is a metric ball and queries can skip shards whose
	// lower bound d(q,pivot) − radius proves them irrelevant.
	ShardPivot = shard.Pivot
)

// ParseShardAssignment maps a CLI spelling ("round-robin", "pivot") to
// a ShardAssignment.
func ParseShardAssignment(s string) (ShardAssignment, error) { return shard.ParseAssignment(s) }

// ShardOptions configures BuildSharded on top of the base Options.
type ShardOptions struct {
	// Shards is the number of partitions (>= 1).
	Shards int
	// Assign is the partitioning strategy.
	Assign ShardAssignment
}

// Build indexes the objects in one M-tree and fits the cost model: it
// constructs the tree (bulk-loaded unless Incremental), estimates the
// distance distribution F̂ from sampled pairs, and collects the tree
// statistics the models need. The returned Index answers both real
// queries and cost predictions. It is BuildSharded with one shard.
func Build(space *Space, objects []Object, opt Options) (*Index, error) {
	return BuildSharded(space, objects, opt, ShardOptions{Shards: 1})
}

// BuildSharded partitions the objects into so.Shards shards and builds
// one cost-modeled M-tree per shard. Options applies per shard: each
// shard gets its own histogram estimate, seed stream, and — when
// opt.Storage asks for one — its own checksummed page stack (so storage
// faults are contained to a shard). Requires at least two objects per
// shard.
func BuildSharded(space *Space, objects []Object, opt Options, so ShardOptions) (*Index, error) {
	stacks := make([]*pager.Stack, max(so.Shards, 0))
	set, err := shard.Build(space, objects, opt.shardOptions(space, objects, so, stacks))
	if err != nil {
		return nil, err
	}
	ix := &Index{space: space, sample: objects[0], set: set, stacks: stacks, workers: opt.Workers, mode: EngineTree}
	clock := obs.StartStopwatch()
	if ix.scan, err = newScan(space, objects, set); err != nil {
		return nil, fmt.Errorf("mcost: building scan engine: %w", err)
	}
	if err := ix.refreshProfile(); err != nil {
		return nil, err
	}
	ix.profileTime = clock.Lap()
	return ix, nil
}

// newScan builds the index's scan engine. Over frozen shards it scans
// the arenas' leaf views in slab order, shard by shard, under global
// OIDs: the scan then keeps no vector of its own and reads each slab
// front to back. (In OID order the same views lie scattered over the
// slab, and a D=64 range scan over 10 000 objects took 2.0 ms against
// 1.2 ms.) Without arenas it scans objects in OID order.
func newScan(space *Space, objects []Object, set *shard.Set) (*mtree.Scan, error) {
	var objs []Object
	var oids []uint64
	for _, sh := range set.Shards() {
		a := sh.Tree.Arena()
		if a == nil {
			return mtree.NewScan(space, objects, set.PageSize())
		}
		from := len(oids)
		objs, oids = a.Leaves(objs, oids)
		for j := from; j < len(oids); j++ {
			oids[j] = sh.OIDs[oids[j]]
		}
	}
	return mtree.NewScanOIDs(space, objs, oids, set.PageSize())
}

// shardOptions is the shard builder's view of opt and so over objects,
// mounting shard i's tree on its own storage stack; stacks, when
// non-nil, receives the stacks. The tree-options hook lives as long as
// the shard set, so it keeps only objects[0], the codec's sample: the
// slice would pin every object the caller passed in.
func (opt Options) shardOptions(space *Space, objects []Object, so ShardOptions, stacks []*pager.Stack) shard.Options {
	var sample Object
	if len(objects) > 0 {
		sample = objects[0]
	}
	return shard.Options{
		Shards:        so.Shards,
		Assign:        so.Assign,
		PageSize:      opt.PageSize,
		HistogramBins: opt.HistogramBins,
		SamplePairs:   opt.SamplePairs,
		Seed:          opt.Seed,
		Workers:       opt.Workers,
		Incremental:   opt.Incremental,
		TreeOptions: func(i int) (mtree.Options, error) {
			mo, stack, err := buildStorage(space, sample, opt)
			if stacks != nil {
				stacks[i] = stack
			}
			return mo, err
		},
		Arena: opt.arena(),
	}
}

func (ix *Index) qopt() shard.QueryOptions {
	return shard.QueryOptions{UseParentDist: true, Workers: ix.workers}
}

// NumShards returns the shard count S.
func (ix *Index) NumShards() int { return ix.set.NumShards() }

// ShardSizes returns each shard's object count, in shard order.
func (ix *Index) ShardSizes() []int {
	sizes := make([]int, ix.set.NumShards())
	for i, sh := range ix.set.Shards() {
		sizes[i] = sh.Tree.Size()
	}
	return sizes
}

// ShardsSkipped returns the shard visits avoided by lower-bound pruning
// since the last ResetCosts.
func (ix *Index) ShardsSkipped() int64 { return ix.set.ShardsSkipped() }

// Size returns the number of indexed objects.
func (ix *Index) Size() int { return ix.set.Size() }

// Height returns the tallest shard tree's number of levels.
func (ix *Index) Height() int { return ix.set.Height() }

// NumNodes returns the number of tree nodes (pages), summed over shards.
func (ix *Index) NumNodes() int { return ix.set.NumNodes() }

// PageSize returns the M-tree node size in bytes.
func (ix *Index) PageSize() int { return ix.set.PageSize() }

// Range returns all objects within radius of q, concatenated in shard
// order. The parent-distance optimization is enabled: real queries
// should be as fast as possible.
func (ix *Index) Range(q Object, radius float64) ([]Match, error) {
	if err := ix.check(q); err != nil {
		return nil, err
	}
	return ix.set.Range(q, radius, ix.qopt())
}

// NN returns the k nearest neighbors of q, closest first (ties broken
// by OID).
func (ix *Index) NN(q Object, k int) ([]Match, error) {
	if err := ix.check(q); err != nil {
		return nil, err
	}
	return ix.set.NN(q, k, ix.qopt())
}

// RangeBatch answers a batch of range queries; out[i] holds query i's
// matches. Within each shard the whole batch shares one traversal, so
// node reads amortize across the batch.
func (ix *Index) RangeBatch(qs []Object, radius float64) ([][]Match, error) {
	if err := ix.check(qs...); err != nil {
		return nil, err
	}
	return ix.set.RangeBatch(qs, radius, ix.qopt())
}

// NNBatch answers a batch of k-NN queries; out[i] holds query i's
// neighbors, closest first.
func (ix *Index) NNBatch(qs []Object, k int) ([][]Match, error) {
	if err := ix.check(qs...); err != nil {
		return nil, err
	}
	return ix.set.NNBatch(qs, k, ix.qopt())
}

// sumFloat adds f over the shards, in shard order.
func (ix *Index) sumFloat(f func(m *core.MTreeModel) float64) float64 {
	var sum float64
	for _, sh := range ix.set.Shards() {
		sum += f(sh.Model)
	}
	return sum
}

// PredictRange predicts range-query costs with the node-based model
// N-MCM (Eq. 6-7 of the paper), summed over the shards. The prediction
// models a search without the parent-distance optimization, so it
// upper-bounds what Range performs; see PredictRangeLevel for the
// cheaper level-based variant.
func (ix *Index) PredictRange(radius float64) CostEstimate {
	return ix.set.Sum(func(sh *shard.Shard) CostEstimate {
		if rc := sh.Recal(); rc != nil {
			return rc.CorrectTotal(sh.Model.RangeN(radius))
		}
		return sh.Model.RangeN(radius)
	})
}

// PredictRangeLevel predicts range-query costs with the level-based
// model L-MCM (Eq. 15-16), which needs only per-level statistics, summed
// over the shards. With recalibration enabled the per-level prediction
// is scaled by the bias factors learned from recent traces. It is the
// tree side's price: what PriceRange charges and the advisor compares
// against the scan.
func (ix *Index) PredictRangeLevel(radius float64) CostEstimate { return ix.set.PredictRange(radius) }

// PredictSelectivity predicts the number of objects a range query
// returns: n·F(radius) (Eq. 8), summed over the shards.
func (ix *Index) PredictSelectivity(radius float64) float64 {
	return ix.sumFloat(func(m *core.MTreeModel) float64 { return m.RangeObjects(radius) })
}

// PredictNN predicts k-NN query costs with the node-based model by
// integrating range costs over the k-th-neighbor distance distribution
// (Eq. 9-14 generalized to any k), summed over the shards — an upper
// bound there, since shard pruning only reduces the real cost. With
// recalibration enabled the aggregate bias learned from recent traces
// is applied.
func (ix *Index) PredictNN(k int) CostEstimate {
	return ix.set.Sum(func(sh *shard.Shard) CostEstimate {
		if rc := sh.Recal(); rc != nil {
			return rc.CorrectNN(sh.Model.NNN(k))
		}
		return sh.Model.NNN(k)
	})
}

// PredictNNLevel is the level-based variant (Eq. 17-18), the tree
// side's k-NN price.
func (ix *Index) PredictNNLevel(k int) CostEstimate { return ix.tree().PriceNN(k) }

// DistanceDistribution exposes the estimated F̂: F(x) is the fraction of
// object pairs within distance x. At S > 1 it is the mass-weighted merge
// of the shards' F̂s, each sampled from pairs within one shard. Under
// ShardPivot those pairs are closer than the dataset's, so the merge is
// biased short: on uniform Linf D=8, n = 5 000, S = 3, Eq. 11 on it puts
// the 10th neighbor at 0.225 where brute force measures 0.276. Each
// shard's own model (Models) is unbiased for that shard's objects.
func (ix *Index) DistanceDistribution() func(x float64) float64 { return ix.f.CDF }

// PredictTotalMS combines a prediction into milliseconds under the disk
// parameters, using this index's node size.
func (ix *Index) PredictTotalMS(est CostEstimate, disk DiskParams) float64 {
	return disk.TotalMS(est, ix.PageSize())
}

// PaperDiskParams returns the disk parameters of the paper's Figure
// 5(b): 10 ms positioning, 1 ms/KB transfer, 5 ms per distance.
func PaperDiskParams() DiskParams { return core.PaperDiskParams() }

// Insert adds one object after Build and returns its OID. On a sharded
// index it goes to the nearest pivot's shard under ShardPivot and by
// rotation under ShardRoundRobin. Refresh the model after bulk churn, or
// enable recalibration and let the index refresh itself. Writes are not
// safe concurrent with queries or with each other.
func (ix *Index) Insert(obj Object) (uint64, error) {
	oid, refit, err := ix.set.Insert(obj)
	if err != nil && !refit {
		return 0, err
	}
	ix.scan.Insert(obj, oid)
	return oid, ix.refitted(refit, err)
}

// Delete removes an object by OID. The caller supplies the object value
// (the tree routes by distance, not by key). After heavy churn the cost
// model's statistics grow stale — covering radii are not tightened on
// deletion — so call RefreshModel before relying on predictions again,
// or enable recalibration and let the index refresh itself.
func (ix *Index) Delete(obj Object, oid uint64) error {
	refit, err := ix.set.Delete(obj, oid)
	if err != nil && !refit {
		return err
	}
	ix.scan.Remove(oid)
	return ix.refitted(refit, err)
}

// refitted follows a write a shard took: after a clean recalibration
// refit the profile is recomputed from the re-merged shard F̂s, over the
// updated scan.
func (ix *Index) refitted(refit bool, err error) error {
	if !refit || err != nil {
		return err
	}
	return ix.refreshProfile()
}

// RefreshModel re-collects every shard's tree statistics and refits its
// cost model after structural churn (inserts/deletes since Build). The
// distance distributions are kept: deletions and inserts drawn from the
// same data distribution do not change them.
func (ix *Index) RefreshModel() error {
	for _, sh := range ix.set.Shards() {
		if err := sh.Refit(sh.F); err != nil {
			return err
		}
	}
	return ix.refreshProfile()
}

// EnableRecalibration attaches a live recalibrator to every shard:
// every subsequent Insert/Delete updates F̂ via reservoir-sampled
// distances, traced batch executions feed the per-level bias window,
// Price*/Predict* and the k-NN shard ordering return bias-corrected
// estimates, and a shard's model is refit from its blended F̂ plus fresh
// tree statistics every cfg.RefreshEvery writes. On one shard sample
// primes the distance-sampling reservoir with live objects — pass the
// build dataset (or any subset); an empty sample fills from inserts. On
// S > 1 shards each shard primes from its own members and sample is
// unused.
//
// The index is not safe for writes concurrent with reads; the serving
// layer serializes writes behind an RWMutex. The recalibrator itself is
// concurrency-safe.
func (ix *Index) EnableRecalibration(cfg recal.Config, sample []Object) error {
	return ix.set.EnableRecalibration(cfg, sample)
}

// RecalStats snapshots the recalibrators' state, aggregated over the
// shards (see shard.Set.RecalStats); ok is false when recalibration is
// not enabled.
func (ix *Index) RecalStats() (recal.Stats, bool) { return ix.set.RecalStats() }

// Model is a standalone fitted cost model: the JSON-serializable object
// a query optimizer keeps in its catalog, predicting costs with no
// access to the index or the data.
type Model = core.MTreeModel

// Models returns the shards' fitted cost models in shard order, one at
// S = 1: Save writes one as JSON for a catalog, and ExpectedNNDist(k) is
// Eq. 11 over that shard's objects. A refit replaces them.
func (ix *Index) Models() []*Model {
	ms := make([]*Model, ix.set.NumShards())
	for i, sh := range ix.set.Shards() {
		ms[i] = sh.Model
	}
	return ms
}

// LoadModel reads a model written by Model.Save.
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

// NNApprox returns approximately the k nearest neighbors: each shard's
// best-first search stops at the confidence-quantile of its k-NN
// distance predicted by its own cost model (Eq. 9), so with probability
// >= confidence the shard's true k-th neighbor lies within the searched
// region, and a shard whose lower bound exceeds its stop is skipped. The
// shards' answers merge closest first, ties by OID. Lower confidence
// means fewer node reads and distance computations; confidence >= 1
// degrades to the exact NN. This is the probably-approximately-correct
// use of the model the paper's optimizer framing invites. One stop from
// the merged F̂ would cut short under ShardPivot (see
// DistanceDistribution). The recalibrators are not fed.
func (ix *Index) NNApprox(q Object, k int, confidence float64) ([]Match, error) {
	if err := ix.check(q); err != nil {
		return nil, err
	}
	var out []Match
	lb := ix.set.Bounds(q)
	for i, sh := range ix.set.Shards() {
		if stop := sh.Model.NNDistQuantile(k, confidence); lb[i] <= stop {
			ms, err := sh.Tree.NNWithStop(q, k, stop, mtree.QueryOptions{UseParentDist: true})
			if err != nil {
				return nil, err
			}
			out = shard.MergeK(out, sh.Global(ms), k)
		}
	}
	return out, nil
}

// IndexStats summarizes the built trees for observability and
// reporting.
type IndexStats struct {
	// Objects is the number of indexed objects.
	Objects int
	// Nodes is the number of pages; Height the number of levels of the
	// tallest tree.
	Nodes  int
	Height int
	// LeafNodes and AvgLeafEntries describe the leaf level.
	LeafNodes      int
	AvgLeafEntries float64
	// AvgLeafRadius and MaxLeafRadius describe leaf region sizes, the
	// quantities the cost model derives access probabilities from.
	AvgLeafRadius float64
	MaxLeafRadius float64
	// LevelNodes lists the node count per level, root first, summed
	// over the shards.
	LevelNodes []int
}

// Stats reports the trees' structural statistics, over all shards (from
// the snapshots taken at Build or the last refit).
func (ix *Index) Stats() IndexStats {
	var out IndexStats
	var leafEntries int
	for _, sh := range ix.set.Shards() {
		out.Objects += sh.Stats.Size
		out.Height = max(out.Height, sh.Stats.Height)
		for l, ls := range sh.Stats.Levels {
			if l == len(out.LevelNodes) {
				out.LevelNodes = append(out.LevelNodes, 0)
			}
			out.LevelNodes[l] += ls.Nodes
			out.Nodes += ls.Nodes
		}
		for _, ns := range sh.Stats.Nodes {
			if !ns.Leaf {
				continue
			}
			out.LeafNodes++
			leafEntries += ns.Entries
			out.AvgLeafRadius += ns.Radius
			out.MaxLeafRadius = max(out.MaxLeafRadius, ns.Radius)
		}
	}
	if out.LeafNodes > 0 {
		out.AvgLeafEntries = float64(leafEntries) / float64(out.LeafNodes)
		out.AvgLeafRadius /= float64(out.LeafNodes)
	}
	return out
}
