package mcost

import (
	"fmt"

	"mcost/internal/advisor"
	"mcost/internal/histogram"
	"mcost/internal/mtree"
)

// Breakdown-aware query planning. The cost model does more than predict
// tree traversals: compared against the flat cost of a linear scan it
// predicts where metric indexing stops paying — the concentration
// regime (Pestov, arXiv:0812.0146) where F̂ collapses around its mean
// and every pruning lemma goes quiet. The advisor prices both engines
// per query and routes to the cheaper one; the serving layer admits and
// budgets against the chosen plan.

// HardnessProfile is a dataset's indexing-hardness profile: correlation
// dimension, distance concentration, the scan plan's fixed price, and
// the radius/k crossover points where the tree starts losing to the
// scan. See advisor.Profile for field semantics.
type HardnessProfile = advisor.Profile

// PlanDecision is one planned query: the chosen engine plus both priced
// alternatives (see advisor.Decision).
type PlanDecision = advisor.Decision

// ErrBadPlanQuery matches planning errors for structurally invalid
// queries (negative or non-finite radius, k < 1).
var ErrBadPlanQuery = advisor.ErrBadQuery

// EngineMode selects which engine executes queries.
type EngineMode string

// Engine modes accepted by SetEngineMode and the binaries' -engine
// flag.
const (
	// EngineTree always traverses the M-tree (the default; the behavior
	// of every release before the planner existed).
	EngineTree EngineMode = "tree"
	// EngineScan always runs the linear scan.
	EngineScan EngineMode = "scan"
	// EngineAuto plans every query: the cost model prices both engines,
	// the cheaper one runs.
	EngineAuto EngineMode = "auto"
)

// ParseEngineMode maps a CLI spelling to an EngineMode; the empty
// string is the tree default.
func ParseEngineMode(s string) (EngineMode, error) {
	switch EngineMode(s) {
	case EngineTree, EngineScan, EngineAuto:
		return EngineMode(s), nil
	case "":
		return EngineTree, nil
	}
	return "", fmt.Errorf("mcost: unknown engine mode %q (want tree, scan, or auto)", s)
}

// treePricer prices tree execution unconditionally, whatever engine
// mode the index is in — the advisor must compare the real tree cost
// against the scan, and the recalibrator must observe tree executions
// against tree predictions.
type treePricer struct{ ix *Index }

func (p treePricer) PriceRange(radius float64) CostEstimate { return p.ix.priceTreeRange(radius) }
func (p treePricer) PriceNN(k int) CostEstimate             { return p.ix.priceTreeNN(k) }

// PriceNNPrefix is priceTreeNN(k) for k = 1..K from one pass of the
// model (see advisor.Predictor).
func (p treePricer) PriceNNPrefix(K int) []CostEstimate {
	est := p.ix.model.NNLPrefix(K)
	if p.ix.rc != nil {
		p.ix.rc.CorrectNNs(est)
	}
	return est
}

// buildPlanner attaches the linear-scan engine and the hardness profile
// to a finished index.
func (ix *Index) buildPlanner(objects []Object) error {
	scan, err := mtree.NewScan(ix.space, objects, ix.tree.PageSize())
	if err != nil {
		return fmt.Errorf("mcost: building scan engine: %w", err)
	}
	ix.scan = scan
	ix.mode = EngineTree
	ix.refreshProfile()
	return nil
}

// refreshProfile recomputes the hardness profile from the current F̂ and
// model, after every model refit so the crossover points track the live
// model. No data passes: moments of F̂, a bisection over PriceRange, and
// a walk up the k-NN prices that stops at the crossover k and costs in
// proportion to it (advisor.crossoverK) — 40 ms at n = 2 000 with the
// crossover at k = 489, 0.3 s at n = 12 000 and k = 3 628, under 1 ms
// where the tree already loses at k = 1 (BenchmarkComputeProfile). A
// recalibration refit pays it under the write lock.
func (ix *Index) refreshProfile() {
	ix.profile = advisor.ComputeProfile(ix.f, ix.scan.Size(), ix.scan.Pages(), ix.space.Bound, treePricer{ix})
}

// Hardness returns the dataset's indexing-hardness profile, computed at
// Build and refreshed with the model.
func (ix *Index) Hardness() HardnessProfile { return ix.profile }

// SetEngineMode selects which engine serves queries issued through the
// batched/priced surface (RangeBatchTraced, NNBatchTraced, PriceRange,
// PriceNN): the tree, the scan, or per-query automatic planning. The
// plain Range/NN methods always use the tree; RangeAuto/NNAuto always
// plan. Not safe to call concurrently with queries.
func (ix *Index) SetEngineMode(mode EngineMode) error {
	switch mode {
	case EngineTree, EngineScan, EngineAuto:
		ix.mode = mode
		return nil
	}
	return fmt.Errorf("mcost: unknown engine mode %q", mode)
}

// EngineMode returns the current engine mode.
func (ix *Index) EngineMode() EngineMode { return ix.mode }

// planProfile is the profile a query is planned against: the one
// computed at build or at the last refit, with the scan priced as it
// stands now. Writes between refits grow and shrink the scan, and a plan
// must quote the price PriceRange/PriceNN charge for it.
func planProfile(p HardnessProfile, scan CostEstimate) HardnessProfile {
	p.ScanNodes, p.ScanDists = scan.Nodes, scan.Dists
	return p
}

// PlanRange prices both engines for a range query and returns the
// advisor's decision.
func (ix *Index) PlanRange(radius float64) (PlanDecision, error) {
	return advisor.Plan(treePricer{ix}, planProfile(ix.profile, ix.scanEstimate()), advisor.Query{Kind: advisor.KindRange, Radius: radius})
}

// PlanNN prices both engines for a k-NN query and returns the advisor's
// decision.
func (ix *Index) PlanNN(k int) (PlanDecision, error) {
	return advisor.Plan(treePricer{ix}, planProfile(ix.profile, ix.scanEstimate()), advisor.Query{Kind: advisor.KindNN, K: k})
}

// RangeAuto plans the query and executes it on the chosen engine. The
// matches are bit-identical to running that engine directly (tree:
// Range; scan: the canonical (distance, OID)-ordered scan); the
// decision says which ran and at what predicted cost.
func (ix *Index) RangeAuto(q Object, radius float64) ([]Match, PlanDecision, error) {
	d, err := ix.PlanRange(radius)
	if err != nil {
		return nil, d, err
	}
	if err := ix.validateQuery(q); err != nil {
		return nil, d, err
	}
	var out []Match
	if d.Engine == advisor.EngineScan {
		out, err = ix.scan.Range(q, radius, mtree.QueryOptions{})
	} else {
		out, err = ix.tree.Range(q, radius, mtree.QueryOptions{UseParentDist: true})
	}
	return out, d, err
}

// NNAuto plans the query and executes it on the chosen engine (see
// RangeAuto).
func (ix *Index) NNAuto(q Object, k int) ([]Match, PlanDecision, error) {
	d, err := ix.PlanNN(k)
	if err != nil {
		return nil, d, err
	}
	if err := ix.validateQuery(q); err != nil {
		return nil, d, err
	}
	var out []Match
	if d.Engine == advisor.EngineScan {
		out, err = ix.scan.NN(q, k, mtree.QueryOptions{})
	} else {
		out, err = ix.tree.NN(q, k, mtree.QueryOptions{UseParentDist: true})
	}
	return out, d, err
}

// engineForRange resolves which engine a priced/batched range call uses
// under the current mode. A planning error (invalid radius) falls back
// to the tree, whose own validation then produces the caller's error.
func (ix *Index) engineForRange(radius float64) advisor.Engine {
	switch ix.mode {
	case EngineScan:
		return advisor.EngineScan
	case EngineAuto:
		if d, err := ix.PlanRange(radius); err == nil {
			return d.Engine
		}
	}
	return advisor.EngineTree
}

func (ix *Index) engineForNN(k int) advisor.Engine {
	switch ix.mode {
	case EngineScan:
		return advisor.EngineScan
	case EngineAuto:
		if d, err := ix.PlanNN(k); err == nil {
			return d.Engine
		}
	}
	return advisor.EngineTree
}

// scanEstimate prices one full linear scan.
func (ix *Index) scanEstimate() CostEstimate {
	return CostEstimate{Nodes: float64(ix.scan.Pages()), Dists: float64(ix.scan.Size())}
}

// --- Sharded planner surface ---

// shardedPricer adapts the sharded set's summed per-shard predictions
// to the advisor's Predictor.
type shardedPricer struct{ sx *ShardedIndex }

func (p shardedPricer) PriceRange(radius float64) CostEstimate {
	return p.sx.set.PredictRange(radius)
}
func (p shardedPricer) PriceNN(k int) CostEstimate { return p.sx.set.PredictNN(k) }
func (p shardedPricer) PriceNNPrefix(K int) []CostEstimate {
	return p.sx.set.PredictNNPrefix(K)
}

// buildPlanner attaches the scan engine (over all objects, global OIDs)
// and the hardness profile to a sharded index. The dataset-level F̂ is
// the mass-weighted merge of the per-shard histograms — no extra
// distance sampling.
func (sx *ShardedIndex) buildPlanner(objects []Object) error {
	scan, err := mtree.NewScan(sx.space, objects, sx.set.PageSize())
	if err != nil {
		return fmt.Errorf("mcost: building scan engine: %w", err)
	}
	sx.scan = scan
	sx.mode = EngineTree
	fs := make([]*histogram.Histogram, 0, sx.set.NumShards())
	for _, sh := range sx.set.Shards() {
		fs = append(fs, sh.F)
	}
	merged, err := histogram.Merge(fs...)
	if err != nil {
		return fmt.Errorf("mcost: merging shard histograms: %w", err)
	}
	sx.f = merged
	sx.profile = advisor.ComputeProfile(sx.f, sx.scan.Size(), sx.scan.Pages(), sx.space.Bound, shardedPricer{sx})
	return nil
}

// Hardness returns the sharded dataset's indexing-hardness profile.
func (sx *ShardedIndex) Hardness() HardnessProfile { return sx.profile }

// SetEngineMode selects the engine for the sharded priced/batched
// surface (see Index.SetEngineMode).
func (sx *ShardedIndex) SetEngineMode(mode EngineMode) error {
	switch mode {
	case EngineTree, EngineScan, EngineAuto:
		sx.mode = mode
		return nil
	}
	return fmt.Errorf("mcost: unknown engine mode %q", mode)
}

// EngineMode returns the current engine mode.
func (sx *ShardedIndex) EngineMode() EngineMode { return sx.mode }

// fanout renames a tree decision to the sharded fan-out engine: the
// plan is still "traverse the metric index", but execution is the
// parallel scatter-gather across shard trees.
func fanout(d PlanDecision) PlanDecision {
	if d.Engine == advisor.EngineTree {
		d.Engine = advisor.EngineFanout
	}
	return d
}

// PlanRange prices the sharded fan-out against the scan (see
// Index.PlanRange); tree-side decisions report engine "sharded-fanout".
func (sx *ShardedIndex) PlanRange(radius float64) (PlanDecision, error) {
	d, err := advisor.Plan(shardedPricer{sx}, planProfile(sx.profile, sx.scanEstimate()), advisor.Query{Kind: advisor.KindRange, Radius: radius})
	return fanout(d), err
}

// PlanNN prices the sharded fan-out against the scan (see
// Index.PlanNN).
func (sx *ShardedIndex) PlanNN(k int) (PlanDecision, error) {
	d, err := advisor.Plan(shardedPricer{sx}, planProfile(sx.profile, sx.scanEstimate()), advisor.Query{Kind: advisor.KindNN, K: k})
	return fanout(d), err
}

// RangeAuto plans the query and executes it on the chosen engine (see
// Index.RangeAuto). OIDs are global either way, so scan and fan-out
// results are directly comparable.
func (sx *ShardedIndex) RangeAuto(q Object, radius float64) ([]Match, PlanDecision, error) {
	d, err := sx.PlanRange(radius)
	if err != nil {
		return nil, d, err
	}
	var out []Match
	if d.Engine == advisor.EngineScan {
		if err := validateQueries(sx.space, sx.sample, []Object{q}); err != nil {
			return nil, d, err
		}
		out, err = sx.scan.Range(q, radius, mtree.QueryOptions{})
	} else {
		out, err = sx.Range(q, radius)
	}
	return out, d, err
}

// NNAuto plans the query and executes it on the chosen engine (see
// Index.NNAuto).
func (sx *ShardedIndex) NNAuto(q Object, k int) ([]Match, PlanDecision, error) {
	d, err := sx.PlanNN(k)
	if err != nil {
		return nil, d, err
	}
	var out []Match
	if d.Engine == advisor.EngineScan {
		if err := validateQueries(sx.space, sx.sample, []Object{q}); err != nil {
			return nil, d, err
		}
		out, err = sx.scan.NN(q, k, mtree.QueryOptions{})
	} else {
		out, err = sx.NN(q, k)
	}
	return out, d, err
}

func (sx *ShardedIndex) engineForRange(radius float64) advisor.Engine {
	switch sx.mode {
	case EngineScan:
		return advisor.EngineScan
	case EngineAuto:
		if d, err := sx.PlanRange(radius); err == nil && d.Engine == advisor.EngineScan {
			return advisor.EngineScan
		}
	}
	return advisor.EngineFanout
}

func (sx *ShardedIndex) engineForNN(k int) advisor.Engine {
	switch sx.mode {
	case EngineScan:
		return advisor.EngineScan
	case EngineAuto:
		if d, err := sx.PlanNN(k); err == nil && d.Engine == advisor.EngineScan {
			return advisor.EngineScan
		}
	}
	return advisor.EngineFanout
}

func (sx *ShardedIndex) scanEstimate() CostEstimate {
	return CostEstimate{Nodes: float64(sx.scan.Pages()), Dists: float64(sx.scan.Size())}
}
