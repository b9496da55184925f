package mcost

import (
	"context"
	"fmt"

	"mcost/internal/advisor"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

// The serving surface, written once for Index and ShardedIndex. Both
// embed a surface; what differs between them is only the tree side —
// one M-tree fed back to its recalibrator on Index, the cost-ordered
// pruned fan-out across shard trees on ShardedIndex. Around it sit the
// first-class linear-scan engine, the hardness profile, the engine mode
// and breakdown-aware planning: the cost model does more than predict
// tree traversals, compared against the flat cost of a scan it predicts
// where metric indexing stops paying — the concentration regime
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

// treeSide is the metric index behind a surface. Its prices are tree
// prices whatever the engine mode — the advisor compares the real tree
// cost against the scan — and its batches run under a context, a batch
// budget and an optional trace, returning per-query partial results
// with a typed budget or context error.
type treeSide interface {
	advisor.Predictor
	RangeBatch(ctx context.Context, qs []Object, radius float64, b QueryBudget, tr *QueryTrace) ([][]Match, error)
	NNBatch(ctx context.Context, qs []Object, k int, b QueryBudget, tr *QueryTrace) ([][]Match, error)
	// Costs and ResetCosts are the tree side's share of the counters.
	Costs() (nodeReads, distances int64)
	ResetCosts()
}

// surface is the query surface Index and ShardedIndex share.
type surface struct {
	space *Space
	// sample is one indexed object, kept as the reference shape for
	// query validation (dimension, bit-string length, object type).
	sample Object
	side   treeSide
	// treeEngine is what a decision for the tree side is called:
	// EngineTree, or EngineFanout on a ShardedIndex, where the plan is
	// still "traverse the metric index" but runs as the parallel
	// scatter-gather across shard trees.
	treeEngine advisor.Engine
	// scan is the linear-scan engine over the same objects, with the same
	// OIDs (write-through on Insert/Delete); mode selects which engine
	// the priced/batched surface uses.
	scan    *mtree.Scan
	profile HardnessProfile
	mode    EngineMode
}

// newSurface attaches the linear-scan engine over objects and the
// hardness profile of f to a tree side.
func newSurface(space *Space, objects []Object, pageSize int, side treeSide, treeEngine advisor.Engine, f *histogram.Histogram) (surface, error) {
	scan, err := mtree.NewScan(space, objects, pageSize)
	if err != nil {
		return surface{}, fmt.Errorf("mcost: building scan engine: %w", err)
	}
	s := surface{space: space, sample: objects[0], side: side, treeEngine: treeEngine, scan: scan, mode: EngineTree}
	s.refreshProfile(f)
	return s, nil
}

// refreshProfile recomputes the hardness profile from F̂ and the tree
// side's current prices — on Index after every model refit, so the
// crossover points track the live model. No data passes: moments of F̂,
// a bisection over PriceRange, and a walk up the k-NN prices that stops
// at the crossover k and costs in proportion to it (advisor.crossoverK)
// — 40 ms at n = 2 000 with the crossover at k = 489, 0.3 s at n = 12 000
// and k = 3 628, under 1 ms where the tree already loses at k = 1
// (BenchmarkComputeProfile). A recalibration refit pays it under the
// write lock.
func (s *surface) refreshProfile(f *histogram.Histogram) {
	s.profile = advisor.ComputeProfile(f, s.scan.Size(), s.scan.Pages(), s.space.Bound, s.side)
}

// check is the one validation point of every query entry point: each
// object must be comparable under the space before any distance call.
func (s *surface) check(qs ...Object) error {
	for i, q := range qs {
		if err := metric.ValidateQuery(s.space, s.sample, q); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// Space returns the metric space the index was built over. A result
// cache layered in front of the engine must probe with exactly this
// space's distance function, or its containment proofs stop matching
// the traversal's arithmetic.
func (s *surface) Space() *Space { return s.space }

// Hardness returns the dataset's indexing-hardness profile, computed at
// build (on a ShardedIndex from the mass-weighted merge of the shard
// histograms) and refreshed with the model.
func (s *surface) Hardness() HardnessProfile { return s.profile }

// SetEngineMode selects which engine serves queries issued through the
// batched/priced surface (RangeBatchTraced, NNBatchTraced, PriceRange,
// PriceNN): the tree side, the scan, or per-query automatic planning.
// Range and NN always run the tree side. Not safe to call concurrently
// with queries.
func (s *surface) SetEngineMode(mode EngineMode) error {
	switch mode {
	case EngineTree, EngineScan, EngineAuto:
		s.mode = mode
		return nil
	}
	return fmt.Errorf("mcost: unknown engine mode %q", mode)
}

// EngineMode returns the current engine mode.
func (s *surface) EngineMode() EngineMode { return s.mode }

// PlanRange prices both engines for a range query and returns the
// advisor's decision.
func (s *surface) PlanRange(radius float64) (PlanDecision, error) {
	return s.plan(advisor.Query{Kind: advisor.KindRange, Radius: radius})
}

// PlanNN prices both engines for a k-NN query and returns the advisor's
// decision.
func (s *surface) PlanNN(k int) (PlanDecision, error) {
	return s.plan(advisor.Query{Kind: advisor.KindNN, K: k})
}

// plan runs the advisor against the profile computed at build or at the
// last refit, with the scan priced as it stands now: writes between
// refits grow and shrink the scan, and a plan must quote the price
// PriceRange/PriceNN charge for it.
func (s *surface) plan(q advisor.Query) (PlanDecision, error) {
	prof := s.profile
	scan := s.scanEstimate()
	prof.ScanNodes, prof.ScanDists = scan.Nodes, scan.Dists
	d, err := advisor.Plan(s.side, prof, q)
	if d.Engine == advisor.EngineTree {
		d.Engine = s.treeEngine
	}
	return d, err
}

// useScan resolves whether a priced/batched call runs on the scan under
// the current mode. A planning error (invalid radius or k) keeps the
// tree side, whose own validation then produces the caller's error.
func (s *surface) useScan(q advisor.Query) bool {
	switch s.mode {
	case EngineScan:
		return true
	case EngineAuto:
		d, err := s.plan(q)
		return err == nil && d.Engine == advisor.EngineScan
	}
	return false
}

// scanEstimate prices one full linear scan.
func (s *surface) scanEstimate() CostEstimate {
	return CostEstimate{Nodes: float64(s.scan.Pages()), Dists: float64(s.scan.Size())}
}

// PriceRange prices one range query for admission control: the
// predicted node reads and distance computations of whatever engine the
// current mode would run it on — the tree side's level-based model
// (L-MCM, Eq. 15-16, bias-corrected under recalibration; summed over
// shards on a ShardedIndex) or the scan's fixed page-and-distance cost.
// The serving layer admits queries against a token bucket of this
// currency rather than a request count, so an expensive query consumes
// proportionally more of the capacity.
func (s *surface) PriceRange(radius float64) CostEstimate {
	if s.useScan(advisor.Query{Kind: advisor.KindRange, Radius: radius}) {
		return s.scanEstimate()
	}
	return s.side.PriceRange(radius)
}

// PriceNN prices one k-NN query at the engine the current mode would
// run it on (L-MCM, Eq. 17-18, for the tree side; see PriceRange). The
// sharded fan-out's price is an upper bound: shard pruning only reduces
// the real cost.
func (s *surface) PriceNN(k int) CostEstimate {
	if s.useScan(advisor.Query{Kind: advisor.KindNN, K: k}) {
		return s.scanEstimate()
	}
	return s.side.PriceNN(k)
}

// RangeBatchTraced answers a batch of range queries in one shared
// traversal on the engine the current mode picks; out[i] holds query
// i's matches (the scan's in canonical (distance, OID) order). It
// honors ctx, a batch-wide budget (b caps the shared node reads and the
// summed distance computations, per shard on a ShardedIndex; the zero
// budget is unlimited), and an optional trace accumulating the batch's
// level-resolved cost. On a budget or context stop the per-query
// partial result sets are returned with the typed error. With
// recalibration enabled on an Index, every clean tree execution feeds
// its trace back into the bias window; a scan execution never does —
// its observations would teach the tree model a scan's cost profile.
// This is the execution contract of the serving layer (internal/server).
func (s *surface) RangeBatchTraced(ctx context.Context, qs []Object, radius float64, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	if err := s.check(qs...); err != nil {
		return nil, err
	}
	if s.useScan(advisor.Query{Kind: advisor.KindRange, Radius: radius}) {
		return s.scan.RangeBatch(qs, radius, mtree.QueryOptions{Budget: b, Ctx: ctx, Trace: tr})
	}
	return s.side.RangeBatch(ctx, qs, radius, b, tr)
}

// NNBatchTraced answers a batch of k-NN queries, closest first, under
// the same contract as RangeBatchTraced.
func (s *surface) NNBatchTraced(ctx context.Context, qs []Object, k int, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	if err := s.check(qs...); err != nil {
		return nil, err
	}
	if s.useScan(advisor.Query{Kind: advisor.KindNN, K: k}) {
		return s.scan.NNBatch(qs, k, mtree.QueryOptions{Budget: b, Ctx: ctx, Trace: tr})
	}
	return s.side.NNBatch(ctx, qs, k, b, tr)
}

// Costs returns the node reads and distance computations accumulated
// since the last ResetCosts — the two cost dimensions of the paper —
// by the tree side (on a ShardedIndex summed over shards, including the
// pivot distances spent ordering and pruning them) and the scan.
func (s *surface) Costs() (nodeReads, distances int64) {
	n, d := s.side.Costs()
	return n + s.scan.NodeReads(), d + s.scan.DistanceCount()
}

// ResetCosts zeroes the counters behind Costs (and ShardsSkipped),
// typically after a build, before a measured workload. Must not race
// with in-flight queries.
func (s *surface) ResetCosts() {
	s.side.ResetCosts()
	s.scan.ResetCounters()
}
