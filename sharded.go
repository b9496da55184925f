package mcost

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mcost/internal/advisor"
	"mcost/internal/histogram"
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
// Its serving surface is Index's, with the fan-out as the tree side and
// the scan over all objects.
type ShardedIndex struct {
	surface
	set     *shard.Set
	stacks  []*pager.Stack // per shard; nil entries when storage is off
	workers int
	// profileTime is what the scan and profile took (see BuildStages).
	profileTime time.Duration
}

// fanoutTree is ShardedIndex's tree side: the shard set, priced by the
// summed per-shard L-MCM predictions.
type fanoutTree struct{ sx *ShardedIndex }

func (t fanoutTree) PriceRange(radius float64) CostEstimate { return t.sx.set.PredictRange(radius) }
func (t fanoutTree) PriceNN(k int) CostEstimate             { return t.sx.set.PredictNN(k) }
func (t fanoutTree) PriceNNPrefix(K int) []CostEstimate     { return t.sx.set.PredictNNPrefix(K) }

// RangeBatch fans the batch out with a per-shard budget and a trace
// merged in shard order.
func (t fanoutTree) RangeBatch(ctx context.Context, qs []Object, radius float64, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	return t.sx.set.RangeBatch(qs, radius, t.opt(ctx, b, tr))
}

// NNBatch is RangeBatch for k-NN.
func (t fanoutTree) NNBatch(ctx context.Context, qs []Object, k int, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	return t.sx.set.NNBatch(qs, k, t.opt(ctx, b, tr))
}

func (t fanoutTree) opt(ctx context.Context, b QueryBudget, tr *QueryTrace) shard.QueryOptions {
	opt := t.sx.qopt()
	opt.Ctx, opt.Budget, opt.Trace = ctx, b, tr
	return opt
}

func (t fanoutTree) Costs() (int64, int64) { return t.sx.set.Costs() }
func (t fanoutTree) ResetCosts()           { t.sx.set.ResetCosts() }

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
	sx := &ShardedIndex{set: set, stacks: stacks, workers: opt.Workers}
	clock := obs.StartStopwatch()
	// The dataset-level F̂ is the mass-weighted merge of the per-shard
	// histograms — no extra distance sampling.
	fs := make([]*histogram.Histogram, 0, set.NumShards())
	for _, sh := range set.Shards() {
		fs = append(fs, sh.F)
	}
	f, err := histogram.Merge(fs...)
	if err != nil {
		return nil, fmt.Errorf("mcost: merging shard histograms: %w", err)
	}
	if sx.surface, err = newSurface(space, objects, set.PageSize(), fanoutTree{sx}, advisor.EngineFanout, f); err != nil {
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
	if err := sx.check(q); err != nil {
		return nil, err
	}
	return sx.set.Range(q, radius, sx.qopt())
}

// NN returns the k nearest neighbors of q, closest first (ties broken
// by global OID).
func (sx *ShardedIndex) NN(q Object, k int) ([]Match, error) {
	if err := sx.check(q); err != nil {
		return nil, err
	}
	return sx.set.NN(q, k, sx.qopt())
}

// RangeBatch answers a batch of range queries; out[i] holds query i's
// matches. Within each shard the whole batch shares one traversal, so
// node reads amortize across the batch.
func (sx *ShardedIndex) RangeBatch(qs []Object, radius float64) ([][]Match, error) {
	if err := sx.check(qs...); err != nil {
		return nil, err
	}
	return sx.set.RangeBatch(qs, radius, sx.qopt())
}

// NNBatch answers a batch of k-NN queries; out[i] holds query i's
// neighbors, closest first.
func (sx *ShardedIndex) NNBatch(qs []Object, k int) ([][]Match, error) {
	if err := sx.check(qs...); err != nil {
		return nil, err
	}
	return sx.set.NNBatch(qs, k, sx.qopt())
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
	if err := sx.check(queryPool...); err != nil {
		return nil, err
	}
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
