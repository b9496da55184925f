package mcost

import (
	"context"
	"errors"
	"time"

	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/pager"
	"mcost/internal/recal"
	"mcost/internal/shard"
	"mcost/internal/workload"
)

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

// ShardedIndex is a dataset partitioned across independent M-trees,
// each with its own distance distribution and L-MCM cost model. Queries
// fan out across shards in parallel and merge deterministically; k-NN
// visits shards best-first in cost-model order and skips shards whose
// lower bound cannot beat the running k-th distance. The batch methods
// amortize node reads within each shard via mtree.RangeBatch/NNBatch.
//
// Like Index it supports concurrent read-only queries. OIDs in results
// are global: the object's index in the slice given to BuildSharded.
type ShardedIndex struct {
	space *Space
	// sample is one indexed object, the reference shape for query
	// validation (see Index.sample).
	sample  Object
	set     *shard.Set
	stacks  []*pager.Stack // per shard; nil entries when storage is off
	workers int
	// scan is the linear-scan engine over all objects with global OIDs;
	// f the merged dataset-level F̂; profile the hardness profile; mode
	// the serving engine mode. See advise.go.
	scan    *mtree.Scan
	f       *histogram.Histogram
	profile HardnessProfile
	mode    EngineMode
	// profileTime is what buildPlanner took (see BuildStages).
	profileTime time.Duration
}

// BuildSharded partitions the objects into so.Shards shards and builds
// one cost-modeled M-tree per shard. Options applies per shard: each
// shard gets its own histogram estimate, seed stream, and — when
// opt.Storage asks for one — its own checksummed page stack (so storage
// faults are contained to a shard). Requires at least two objects per
// shard.
func BuildSharded(space *Space, objects []Object, opt Options, so ShardOptions) (*ShardedIndex, error) {
	if space == nil {
		return nil, errors.New("mcost: nil space")
	}
	if len(objects) == 0 {
		return nil, errors.New("mcost: no objects")
	}
	stacks := make([]*pager.Stack, so.Shards)
	var arena *mtree.ArenaConfig
	if opt.Arena.Enabled && opt.Storage.Faults == nil {
		arena = &mtree.ArenaConfig{Mmap: opt.Arena.Mmap, Path: opt.Arena.Path}
	}
	set, err := shard.Build(space, objects, shard.Options{
		Shards:        so.Shards,
		Assign:        so.Assign,
		PageSize:      opt.PageSize,
		HistogramBins: opt.HistogramBins,
		SamplePairs:   opt.SamplePairs,
		Seed:          opt.Seed,
		Workers:       opt.Workers,
		Incremental:   opt.Incremental,
		Arena:         arena,
		TreeOptions: func(i int) (mtree.Options, error) {
			mo, stack, err := buildStorage(space, objects[0], opt)
			if err != nil {
				return mo, err
			}
			stacks[i] = stack
			return mo, nil
		},
	})
	if err != nil {
		return nil, err
	}
	sx := &ShardedIndex{space: space, sample: objects[0], set: set, stacks: stacks, workers: opt.Workers}
	clock := obs.StartStopwatch()
	if err := sx.buildPlanner(objects); err != nil {
		return nil, err
	}
	sx.profileTime = clock.Lap()
	return sx, nil
}

// BuildStages returns where BuildSharded's time went: the profile's, and
// each other stage summed over the shards (see BuildStages).
func (sx *ShardedIndex) BuildStages() BuildStages {
	st := BuildStages{Profile: sx.profileTime}
	for _, sh := range sx.set.Shards() {
		st.Bulkload += sh.Stages.Bulkload
		st.Estimate += sh.Stages.Estimate
		st.Model += sh.Stages.Model
		st.Freeze += sh.Stages.Freeze
	}
	return st
}

func (sx *ShardedIndex) qopt() shard.QueryOptions {
	return shard.QueryOptions{UseParentDist: true, Workers: sx.workers}
}

// NumShards returns the shard count.
func (sx *ShardedIndex) NumShards() int { return sx.set.NumShards() }

// Size returns the total number of indexed objects.
func (sx *ShardedIndex) Size() int { return sx.set.Size() }

// Height returns the tallest shard tree's height.
func (sx *ShardedIndex) Height() int { return sx.set.Height() }

// NumNodes returns the summed node count across shard trees.
func (sx *ShardedIndex) NumNodes() int { return sx.set.NumNodes() }

// PageSize returns the node size shared by the shard trees.
func (sx *ShardedIndex) PageSize() int { return sx.set.PageSize() }

// Range returns all objects within radius of q, concatenated in shard
// order.
func (sx *ShardedIndex) Range(q Object, radius float64) ([]Match, error) {
	if err := metric.ValidateQuery(sx.space, sx.sample, q); err != nil {
		return nil, err
	}
	return sx.set.Range(q, radius, sx.qopt())
}

// NN returns the k nearest neighbors of q, closest first (ties broken
// by global OID).
func (sx *ShardedIndex) NN(q Object, k int) ([]Match, error) {
	if err := metric.ValidateQuery(sx.space, sx.sample, q); err != nil {
		return nil, err
	}
	return sx.set.NN(q, k, sx.qopt())
}

// RangeBatch answers a batch of range queries; out[i] holds query i's
// matches. Within each shard the whole batch shares one traversal, so
// node reads amortize across the batch.
func (sx *ShardedIndex) RangeBatch(qs []Object, radius float64) ([][]Match, error) {
	if err := validateQueries(sx.space, sx.sample, qs); err != nil {
		return nil, err
	}
	return sx.set.RangeBatch(qs, radius, sx.qopt())
}

// NNBatch answers a batch of k-NN queries; out[i] holds query i's
// neighbors, closest first.
func (sx *ShardedIndex) NNBatch(qs []Object, k int) ([][]Match, error) {
	if err := validateQueries(sx.space, sx.sample, qs); err != nil {
		return nil, err
	}
	return sx.set.NNBatch(qs, k, sx.qopt())
}

// RangeCtx is Range honoring ctx and a per-shard budget; partial
// results accompany a typed error (see QueryBudget).
func (sx *ShardedIndex) RangeCtx(ctx context.Context, q Object, radius float64, b QueryBudget) ([]Match, error) {
	if err := metric.ValidateQuery(sx.space, sx.sample, q); err != nil {
		return nil, err
	}
	opt := sx.qopt()
	opt.Ctx = ctx
	opt.Budget = b
	return sx.set.Range(q, radius, opt)
}

// NNCtx is NN honoring ctx and a per-shard budget.
func (sx *ShardedIndex) NNCtx(ctx context.Context, q Object, k int, b QueryBudget) ([]Match, error) {
	if err := metric.ValidateQuery(sx.space, sx.sample, q); err != nil {
		return nil, err
	}
	opt := sx.qopt()
	opt.Ctx = ctx
	opt.Budget = b
	return sx.set.NN(q, k, opt)
}

// RangeBatchCtx is RangeBatch honoring ctx and a per-shard batch
// budget.
func (sx *ShardedIndex) RangeBatchCtx(ctx context.Context, qs []Object, radius float64, b QueryBudget) ([][]Match, error) {
	if err := validateQueries(sx.space, sx.sample, qs); err != nil {
		return nil, err
	}
	opt := sx.qopt()
	opt.Ctx = ctx
	opt.Budget = b
	return sx.set.RangeBatch(qs, radius, opt)
}

// NNBatchCtx is NNBatch honoring ctx and a per-shard batch budget.
func (sx *ShardedIndex) NNBatchCtx(ctx context.Context, qs []Object, k int, b QueryBudget) ([][]Match, error) {
	if err := validateQueries(sx.space, sx.sample, qs); err != nil {
		return nil, err
	}
	opt := sx.qopt()
	opt.Ctx = ctx
	opt.Budget = b
	return sx.set.NNBatch(qs, k, opt)
}

// PredictRange predicts a range query's total cost as the sum of the
// per-shard L-MCM predictions.
func (sx *ShardedIndex) PredictRange(radius float64) CostEstimate {
	return sx.set.PredictRange(radius)
}

// PredictNN predicts a k-NN query's total cost as the sum of the
// per-shard L-MCM predictions (an upper bound: shard pruning only
// reduces the real cost).
func (sx *ShardedIndex) PredictNN(k int) CostEstimate { return sx.set.PredictNN(k) }

// Costs returns node reads and distance computations accumulated since
// the last ResetCosts, summed over shards (including the pivot
// distances spent ordering and pruning shards) and the scan engine.
func (sx *ShardedIndex) Costs() (nodeReads, distances int64) {
	n, d := sx.set.Costs()
	return n + sx.scan.NodeReads(), d + sx.scan.DistanceCount()
}

// ResetCosts zeroes the counters behind Costs and ShardsSkipped. Must
// not race with in-flight queries.
func (sx *ShardedIndex) ResetCosts() {
	sx.set.ResetCosts()
	sx.scan.ResetCounters()
}

// ShardsSkipped returns the shard visits avoided by lower-bound pruning
// since the last ResetCosts.
func (sx *ShardedIndex) ShardsSkipped() int64 { return sx.set.ShardsSkipped() }

// ShardSizes returns each shard's object count, in shard order.
func (sx *ShardedIndex) ShardSizes() []int {
	sizes := make([]int, sx.set.NumShards())
	for i, sh := range sx.set.Shards() {
		sizes[i] = sh.Tree.Size()
	}
	return sizes
}

// SetFaultsEnabled flips fault injection on every shard built with
// StorageOptions.Faults; it reports whether any fault layer exists.
func (sx *ShardedIndex) SetFaultsEnabled(on bool) bool {
	any := false
	for _, st := range sx.stacks {
		if st != nil && st.Faulty != nil {
			st.Faulty.SetEnabled(on)
			any = true
		}
	}
	return any
}

// RunWorkload executes w's query mix against the sharded index in
// batches of opt.Batch queries and scores the summed per-shard model
// predictions against the measured per-query costs.
func (sx *ShardedIndex) RunWorkload(w *Workload, queryPool []Object, opt WorkloadOptions) (*WorkloadReport, error) {
	return workload.RunEngine(sx, sx, w, queryPool, opt)
}

// Insert routes the object to a shard (nearest pivot under ShardPivot,
// rotation under ShardRoundRobin) and returns its new global OID.
// Writes follow the tree contract: not safe concurrent with queries or
// with each other.
func (sx *ShardedIndex) Insert(obj Object) (uint64, error) {
	oid, err := sx.set.Insert(obj)
	if err != nil {
		return 0, err
	}
	sx.scan.Insert(obj, oid)
	return oid, nil
}

// Delete removes the object stored under the global OID (see
// Index.Delete for the identity check).
func (sx *ShardedIndex) Delete(obj Object, oid uint64) error {
	if err := sx.set.Delete(obj, oid); err != nil {
		return err
	}
	sx.scan.Remove(oid)
	return nil
}

// EnableRecalibration attaches one online recalibrator per shard (see
// Index.EnableRecalibration); predictions and the k-NN shard ordering
// switch to bias-corrected estimates.
func (sx *ShardedIndex) EnableRecalibration(cfg recal.Config) error {
	return sx.set.EnableRecalibration(cfg)
}

// RecalStats reports the aggregated per-shard recalibrator state; ok is
// false when recalibration is not enabled.
func (sx *ShardedIndex) RecalStats() (recal.Stats, bool) { return sx.set.RecalStats() }

var _ workload.Engine = (*ShardedIndex)(nil)
var _ workload.Predictor = (*ShardedIndex)(nil)
