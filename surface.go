package mcost

import (
	"context"
	"fmt"

	"mcost/internal/advisor"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/shard"
)

// The serving surface of an Index. Its tree side is the shard set — one
// M-tree, or the cost-ordered pruned fan-out across S of them, each fed
// back to its recalibrator. Around it sit the first-class linear-scan
// engine, the hardness profile, the engine mode and breakdown-aware
// planning: the cost model does more than predict tree traversals,
// compared against the flat cost of a scan it predicts where metric
// indexing stops paying — the concentration regime
// (Pestov, arXiv:0812.0146) where F̂ collapses around its mean and every
// pruning lemma goes quiet. The advisor prices both engines per query
// and the priced/batched surface runs the cheaper one; the serving
// layer admits and budgets against the same price.

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

// ErrInvalidQuery is returned (wrapped) by every query entry point when
// the query object cannot be compared by the index's space — wrong
// type, wrong vector dimension, non-finite coordinates, or a
// length-mismatched bit string. The check runs before any distance
// call, so a malformed query is a typed error, never a panic inside a
// distance function. Match with errors.Is.
var ErrInvalidQuery = metric.ErrInvalidQuery

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

// refreshProfile re-merges F̂ from the shards and recomputes the
// hardness profile from it and the tree side's current prices — after
// every model refit, so the crossover points track the live model. No
// data passes: moments of F̂, a bisection over PriceRange, and a walk up
// the k-NN prices in one-pass prefixes that stops at the crossover k
// and costs in proportion to it (advisor.crossoverK) — 30–60 ms at
// n = 2 000 with the crossover at k = 489, 0.2 s at n = 12 000 and
// k = 3 628, under 1 ms where the tree already loses at k = 1
// (BenchmarkComputeProfile), 0.2–0.3 s on a 3-shard pivot set of 2 000
// whose crossover lies past half its smallest shard. A recalibration
// refit pays it under the write lock.
func (ix *Index) refreshProfile() error {
	fs := make([]*histogram.Histogram, 0, ix.set.NumShards())
	for _, sh := range ix.set.Shards() {
		fs = append(fs, sh.F)
	}
	f, err := histogram.Merge(fs...)
	if err != nil {
		return fmt.Errorf("mcost: merging shard histograms: %w", err)
	}
	ix.f = f
	ix.profile = advisor.ComputeProfile(f, ix.scan.Size(), ix.scan.Pages(), ix.space.Bound, ix.tree())
	return nil
}

// tree returns the index's tree side.
func (ix *Index) tree() tree { return tree{ix.set} }

// check is the one validation point of every query entry point: each
// object must be comparable under the space before any distance call.
func (ix *Index) check(qs ...Object) error {
	for i, q := range qs {
		if err := metric.ValidateQuery(ix.space, ix.sample, q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// Space returns the metric space the index was built over. A result
// cache layered in front of the engine must probe with exactly this
// space's distance function, or its containment proofs stop matching
// the traversal's arithmetic.
func (ix *Index) Space() *Space { return ix.space }

// Hardness returns the dataset's indexing-hardness profile, computed at
// build from the merged F̂ and refreshed with the model.
func (ix *Index) Hardness() HardnessProfile { return ix.profile }

// SetEngineMode selects which engine serves queries issued through the
// batched/priced surface (RangeBatchTraced, NNBatchTraced, PriceRange,
// PriceNN): the tree side, the scan, or per-query automatic planning.
// Range and NN always run the tree side. Not safe to call concurrently
// with queries.
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

// PlanRange prices both engines for a range query and returns the
// advisor's decision.
func (ix *Index) PlanRange(radius float64) (PlanDecision, error) {
	return ix.plan(advisor.Query{Kind: advisor.KindRange, Radius: radius})
}

// PlanNN prices both engines for a k-NN query and returns the advisor's
// decision.
func (ix *Index) PlanNN(k int) (PlanDecision, error) {
	return ix.plan(advisor.Query{Kind: advisor.KindNN, K: k})
}

// plan runs the advisor against the profile computed at build or at the
// last refit, with the scan priced as it stands now: writes between
// refits grow and shrink the scan, and a plan must quote the price
// PriceRange/PriceNN charge for it.
func (ix *Index) plan(q advisor.Query) (PlanDecision, error) {
	prof := ix.profile
	scan := ix.scanEstimate()
	prof.ScanNodes, prof.ScanDists = scan.Nodes, scan.Dists
	d, err := advisor.Plan(ix.tree(), prof, q)
	if d.Engine == advisor.EngineTree && ix.NumShards() > 1 { // S > 1: the tree side runs as the fan-out
		d.Engine = advisor.EngineFanout
	}
	return d, err
}

// useScan resolves whether a priced/batched call runs on the scan under
// the current mode. A planning error (invalid radius or k) keeps the
// tree side, whose own validation then produces the caller's error.
func (ix *Index) useScan(q advisor.Query) bool {
	switch ix.mode {
	case EngineScan:
		return true
	case EngineAuto:
		d, err := ix.plan(q)
		return err == nil && d.Engine == advisor.EngineScan
	}
	return false
}

// scanEstimate prices one full linear scan.
func (ix *Index) scanEstimate() CostEstimate {
	return CostEstimate{Nodes: float64(ix.scan.Pages()), Dists: float64(ix.scan.Size())}
}

// PriceRange prices one range query for admission control: the
// predicted node reads and distance computations of whatever engine the
// current mode would run it on — the tree side's level-based model
// (L-MCM, Eq. 15-16, bias-corrected under recalibration; summed over
// the shards) or the scan's fixed page-and-distance cost.
// The serving layer admits queries against a token bucket of this
// currency rather than a request count, so an expensive query consumes
// proportionally more of the capacity.
func (ix *Index) PriceRange(radius float64) CostEstimate {
	if ix.useScan(advisor.Query{Kind: advisor.KindRange, Radius: radius}) {
		return ix.scanEstimate()
	}
	return ix.tree().PriceRange(radius)
}

// PriceNN prices one k-NN query at the engine the current mode would
// run it on (L-MCM, Eq. 17-18, for the tree side; see PriceRange). On
// S > 1 shards the price is an upper bound: shard pruning only reduces
// the real cost.
func (ix *Index) PriceNN(k int) CostEstimate {
	if ix.useScan(advisor.Query{Kind: advisor.KindNN, K: k}) {
		return ix.scanEstimate()
	}
	return ix.tree().PriceNN(k)
}

// RangeBatchTraced answers a batch of range queries in one shared
// traversal on the engine the current mode picks; out[i] holds query
// i's matches (the scan's in canonical (distance, OID) order). It
// honors ctx, a batch-wide budget (b caps the shared node reads and the
// summed distance computations, per shard; the zero budget is
// unlimited), and an optional trace accumulating the batch's
// level-resolved cost. On a budget or context stop the per-query
// partial result sets are returned with the typed error. With
// recalibration enabled, every clean tree execution feeds
// its trace back into the bias window; a scan execution never does —
// its observations would teach the tree model a scan's cost profile.
// This is the execution contract of the serving layer (internal/server).
func (ix *Index) RangeBatchTraced(ctx context.Context, qs []Object, radius float64, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	if err := ix.check(qs...); err != nil {
		return nil, err
	}
	if ix.useScan(advisor.Query{Kind: advisor.KindRange, Radius: radius}) {
		return ix.scan.RangeBatch(qs, radius, mtree.QueryOptions{Budget: b, Ctx: ctx, Trace: tr})
	}
	return ix.set.RangeBatch(qs, radius, shard.QueryOptions{UseParentDist: true, Workers: ix.workers, Budget: b, Ctx: ctx, Trace: tr})
}

// NNBatchTraced answers a batch of k-NN queries, closest first, under
// the same contract as RangeBatchTraced.
func (ix *Index) NNBatchTraced(ctx context.Context, qs []Object, k int, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	if err := ix.check(qs...); err != nil {
		return nil, err
	}
	if ix.useScan(advisor.Query{Kind: advisor.KindNN, K: k}) {
		return ix.scan.NNBatch(qs, k, mtree.QueryOptions{Budget: b, Ctx: ctx, Trace: tr})
	}
	return ix.set.NNBatch(qs, k, shard.QueryOptions{UseParentDist: true, Workers: ix.workers, Budget: b, Ctx: ctx, Trace: tr})
}

// Costs returns the node reads and distance computations accumulated
// since the last ResetCosts — the two cost dimensions of the paper —
// by the tree side (summed over shards, including the pivot distances
// spent ordering and pruning them) and the scan.
func (ix *Index) Costs() (nodeReads, distances int64) {
	n, d := ix.set.Costs()
	return n + ix.scan.NodeReads(), d + ix.scan.DistanceCount()
}

// ResetCosts zeroes the counters behind Costs (and ShardsSkipped),
// typically after a build, before a measured workload. Must not race
// with in-flight queries.
func (ix *Index) ResetCosts() {
	ix.set.ResetCosts()
	ix.scan.ResetCounters()
}
