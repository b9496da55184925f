// Package advisor is the breakdown-aware query planner: it sits between
// the paper's cost model and the execution engines and decides, per
// query, whether the M-tree is still worth traversing or whether the
// metric curse has already won and a flat linear scan is the honest
// plan.
//
// The PODS 1998 model prices a tree traversal from the distance
// distribution F̂; Pestov's concentration bounds (arXiv:0812.0146) show
// that as intrinsic dimension grows, F̂ concentrates — σ/μ shrinks —
// and every metric-tree query degenerates toward reading the whole
// structure. At that point the tree costs MORE than a scan: it reads as
// many pages (fatter ones, since internal nodes carry routing entries)
// and computes as many distances, plus traversal overhead. The advisor
// detects the regime from the same F̂ the cost model already maintains
// and routes each query to the cheaper engine, with both predictions
// attached so the decision is auditable.
package advisor

import (
	"errors"
	"fmt"
	"math"

	"mcost/internal/core"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/numeric"
)

// ErrBadQuery is the sentinel for structurally invalid queries handed
// to Plan (negative or non-finite radius, k < 1, unknown kind). Match
// with errors.Is.
var ErrBadQuery = errors.New("advisor: invalid query")

// Engine names a query execution strategy.
type Engine string

const (
	// EngineTree traverses the M-tree.
	EngineTree Engine = "tree"
	// EngineScan runs the flat linear scan.
	EngineScan Engine = "scan"
	// EngineFanout is the sharded tree fan-out — the tree plan as
	// executed by a sharded mcost.Index or the distributed router.
	EngineFanout Engine = "sharded-fanout"
)

// Kind distinguishes the two query shapes the planner prices.
type Kind string

const (
	// KindRange is a similarity range query with a radius.
	KindRange Kind = "range"
	// KindNN is a k-nearest-neighbor query.
	KindNN Kind = "nn"
)

// Query is one similarity query to plan: Radius is read for KindRange,
// K for KindNN.
type Query struct {
	Kind   Kind
	Radius float64
	K      int
}

// Predictor prices tree execution — the facade's recalibration-aware
// PriceRange/PriceNN satisfy it, as does a bare core.MTreeModel via
// ModelPredictor.
type Predictor interface {
	PriceRange(radius float64) core.CostEstimate
	PriceNN(k int) core.CostEstimate
	// PriceNNPrefix returns PriceNN(k) for k = 1..K at index k-1, priced
	// together (core.MTreeModel.NNLPrefix) for less than PriceNN(K) alone
	// costs.
	PriceNNPrefix(K int) []core.CostEstimate
}

// ModelPredictor adapts a bare cost model (no recalibration layer) to
// the Predictor interface using the level-based L-MCM estimates.
type ModelPredictor struct{ Model *core.MTreeModel }

// PriceRange implements Predictor.
func (m ModelPredictor) PriceRange(radius float64) core.CostEstimate {
	return m.Model.RangeL(radius)
}

// PriceNN implements Predictor.
func (m ModelPredictor) PriceNN(k int) core.CostEstimate { return m.Model.NNL(k) }

// PriceNNPrefix implements Predictor.
func (m ModelPredictor) PriceNNPrefix(K int) []core.CostEstimate { return m.Model.NNLPrefix(K) }

// Profile is a dataset hardness profile: everything the planner knows
// about how close this dataset sits to the metric-indexing breakdown
// point. It is computed once per build (and refreshed on
// recalibration), entirely from F̂ and the structure stats — no extra
// passes over the data.
type Profile struct {
	// N is the dataset size.
	N int `json:"n"`
	// D2 is the correlation fractal dimension estimated from F̂ (slope
	// of log F(r) vs log r); low D2 means the data lives on a
	// low-dimensional structure the tree can exploit. Valid only when
	// D2Valid — a degenerate F̂ (point-mass distances) has no scaling
	// region and D2 is reported as 0/invalid rather than fabricated.
	D2      float64 `json:"d2"`
	D2Valid bool    `json:"d2_valid"`
	// Concentration is σ/μ of F̂ — the distance-concentration ratio.
	// As it falls toward 0 every pairwise distance looks alike, pruning
	// lemmas stop firing, and metric indexing dies (Pestov).
	Concentration float64 `json:"concentration"`
	// IntrinsicDim is the concentration-based intrinsic dimension
	// ρ = μ²/(2σ²) (Chávez et al.) — the planner's scalar hardness
	// score: it grows monotonically as concentration falls.
	IntrinsicDim float64 `json:"intrinsic_dim"`
	// ScanNodes and ScanDists price the alternative plan: one full
	// linear scan costs ScanNodes sequential page reads (objects packed
	// into leaf-equivalent pages) and ScanDists = N distance
	// computations, independent of the query.
	ScanNodes float64 `json:"scan_nodes"`
	ScanDists float64 `json:"scan_dists"`
	// CrossoverRadius is the smallest range-query radius at which the
	// tree's predicted cost meets the scan's; queries below it plan to
	// the tree, above it to the scan. Negative means the tree never
	// loses within the metric's bound (easy dataset); 0 means the tree
	// loses everywhere (fully concentrated dataset).
	CrossoverRadius float64 `json:"crossover_radius"`
	// CrossoverK is the smallest k at which a k-NN query plans to the
	// scan; 0 means the tree never loses for any k ≤ N.
	CrossoverK int `json:"crossover_k"`
}

// Hardness returns the profile's scalar hardness score — the
// concentration-based intrinsic dimension. It is monotone in the
// "curse": growing hypercube dimension, longer HDC codewords, tighter
// clusters all push it up.
func (p Profile) Hardness() float64 { return p.IntrinsicDim }

// cost collapses a CostEstimate into the planner's scalar objective:
// node reads + distance computations, the two currencies the paper's
// model predicts and the engines meter. Weighting them equally keeps
// the decision auditable against the engines' own counters.
func cost(e core.CostEstimate) float64 { return e.Nodes + e.Dists }

// ComputeProfile derives the hardness profile from the fitted distance
// distribution, the dataset size, the scan plan's page count, and a
// tree-cost predictor. bound is the metric's d+ (the largest possible
// distance, the search range for the radius crossover).
func ComputeProfile(f *histogram.Histogram, n int, scanPages int, bound float64, pred Predictor) Profile {
	prof := Profile{
		N:         n,
		ScanNodes: float64(scanPages),
		ScanDists: float64(n),
	}
	mean := f.Mean()
	std := f.Std()
	if mean > 0 {
		prof.Concentration = std / mean
	}
	if std > 0 {
		prof.IntrinsicDim = mean * mean / (2 * std * std)
	} else if mean > 0 {
		// Point-mass distances: infinite intrinsic dimension, clamped to
		// a large finite sentinel so JSON stays well-formed.
		prof.IntrinsicDim = math.MaxFloat64
	}
	if d2, err := distdist.CorrelationDimension(f, 0, 0); err == nil {
		prof.D2 = d2
		prof.D2Valid = true
	}
	prof.CrossoverRadius = crossoverRadius(pred, prof, bound)
	prof.CrossoverK = crossoverK(pred, prof)
	return prof
}

// crossoverRadius finds the smallest radius where the tree's predicted
// cost reaches the scan's, by bisection on the (monotone in r) tree
// cost. Returns a negative sentinel when the tree wins across the whole
// metric bound, 0 when it loses even at radius 0.
func crossoverRadius(pred Predictor, prof Profile, bound float64) float64 {
	scan := prof.ScanNodes + prof.ScanDists
	treeAt := func(r float64) float64 { return cost(pred.PriceRange(r)) }
	if !(treeAt(bound) >= scan) {
		return -1
	}
	return numeric.Bisect(treeAt, scan, 0, bound, bound*1e-9)
}

// crossoverK finds the smallest k whose predicted tree cost reaches the
// scan's. Returns 0 when the tree wins for every k ≤ N (judged, as the
// plan for k = N would be, by PriceNN(N) alone). Otherwise it walks the
// prices up from k = 1 and stops at the first that reaches the scan's,
// asking for them in prefixes of doubling length: a crossover at k costs
// prefixes of under 4k prices in total, and a dataset past the breakdown
// point, where the answer is 1, costs one price. The doubling stops once
// at numeric.LowerTailMaxK(N), so that only a crossover past it asks for
// a longer prefix (under 5k prices in all), which sums the upper
// binomial tail from k = N down as well. PriceNN is asked once, for the
// k = N check.
func crossoverK(pred Predictor, prof Profile) int {
	scan := prof.ScanNodes + prof.ScanDists
	if prof.N < 1 {
		return 0
	}
	if !(cost(pred.PriceNN(prof.N)) >= scan) {
		return 0
	}
	lowerK := numeric.LowerTailMaxK(prof.N)
	for below, K := 0, 1; below < prof.N; below, K = K, min(2*K, prof.N) {
		if below < lowerK && K > lowerK {
			K = lowerK
		}
		prices := pred.PriceNNPrefix(K)
		for k := below + 1; k <= len(prices); k++ {
			if cost(prices[k-1]) >= scan {
				return k
			}
		}
	}
	return prof.N
}

// Decision is one planned query: the chosen engine and both priced
// alternatives, so callers (admission control, the stats endpoint, the
// experiments) can audit the choice against observed cost.
type Decision struct {
	// Engine is the chosen execution strategy.
	Engine Engine `json:"engine"`
	// PredictedTree and PredictedScan are the two plans' prices in the
	// paper's currency (node reads, distance computations).
	PredictedTree core.CostEstimate `json:"predicted_tree"`
	PredictedScan core.CostEstimate `json:"predicted_scan"`
	// Reason is a one-line human-readable account of the choice.
	Reason string `json:"reason"`
}

// Predicted returns the chosen plan's estimate — the number admission
// control should price the query at.
func (d Decision) Predicted() core.CostEstimate {
	if d.Engine == EngineScan {
		return d.PredictedScan
	}
	return d.PredictedTree
}

// Plan prices both engines for the query and picks the cheaper one by
// total node reads + distance computations. Ties go to the tree (exact
// same price, prefer the index: its pages are hot and its partial
// results arrive best-first). A non-finite tree prediction — a
// recalibration gone bad or a degenerate model — routes to the scan,
// whose cost is always finite and known. Structurally invalid queries
// return an error matching ErrBadQuery; Plan never panics.
func Plan(pred Predictor, prof Profile, q Query) (Decision, error) {
	var tree core.CostEstimate
	switch q.Kind {
	case KindRange:
		if math.IsNaN(q.Radius) || math.IsInf(q.Radius, 0) || q.Radius < 0 {
			return Decision{}, fmt.Errorf("%w: range radius %g", ErrBadQuery, q.Radius)
		}
		tree = pred.PriceRange(q.Radius)
	case KindNN:
		if q.K < 1 {
			return Decision{}, fmt.Errorf("%w: k = %d", ErrBadQuery, q.K)
		}
		tree = pred.PriceNN(q.K)
	default:
		return Decision{}, fmt.Errorf("%w: unknown kind %q", ErrBadQuery, q.Kind)
	}
	scan := core.CostEstimate{Nodes: prof.ScanNodes, Dists: prof.ScanDists}
	d := Decision{PredictedTree: tree, PredictedScan: scan}
	treeCost, scanCost := cost(tree), cost(scan)
	switch {
	case math.IsNaN(treeCost) || math.IsInf(treeCost, 0):
		d.Engine = EngineScan
		d.Reason = fmt.Sprintf("tree prediction non-finite (%g); scan cost %.0f is known", treeCost, scanCost)
	case treeCost <= scanCost:
		d.Engine = EngineTree
		d.Reason = fmt.Sprintf("tree %.0f ≤ scan %.0f (nodes+dists)", treeCost, scanCost)
	default:
		d.Engine = EngineScan
		d.Reason = fmt.Sprintf("tree %.0f > scan %.0f (nodes+dists); concentration σ/μ = %.3f", treeCost, scanCost, prof.Concentration)
	}
	return d, nil
}
