// Package core implements the paper's contribution: cost models that
// predict the I/O (node reads) and CPU (distance computations) costs of
// range and k-nearest-neighbor queries over metric access methods, using
// only the distance distribution F of the indexed space plus compact
// tree statistics.
//
// Two M-tree models are provided. N-MCM (node-based, Section 3.1) keeps
// the covering radius and entry count of every node: the access
// probability of node N with radius r(N) under range(Q, rQ) is
// F(r(N) + rQ) by the triangle inequality and the homogeneity assumption
// (Eq. 5), so expected node reads and distance computations are sums of
// those probabilities (Eq. 6-7). L-MCM (level-based, Section 3.2) only
// keeps the node count and average radius per level (Eq. 15-16).
// Nearest-neighbor costs integrate the range costs against the
// distribution of the k-NN distance (Eq. 9-14, 17-18).
//
// Section 5's vp-tree model is in vpcm.go; node-size tuning (Section
// 4.1) in tuning.go.
package core

import (
	"errors"
	"fmt"
	"sync"

	"mcost/internal/histogram"
	"mcost/internal/mtree"
	"mcost/internal/numeric"
)

// CostEstimate is a predicted query cost.
type CostEstimate struct {
	// Nodes is the expected number of node reads (I/O cost).
	Nodes float64
	// Dists is the expected number of distance computations (CPU cost).
	Dists float64
}

// MTreeModel predicts M-tree query costs from the distance distribution
// and tree statistics. Construct with NewMTreeModel.
type MTreeModel struct {
	f     *histogram.Histogram
	stats *mtree.Stats
	// steps controls integration granularity for NN estimates.
	steps int
	// nn holds the k-NN integrals already evaluated on this model (see
	// NNLCached).
	nn nnTable
}

// NewMTreeModel builds a model from the estimated distance distribution
// F̂ and the tree statistics snapshot. Both N-MCM and L-MCM predictions
// are available on the same model; they differ only in which part of the
// statistics they read.
func NewMTreeModel(f *histogram.Histogram, stats *mtree.Stats) (*MTreeModel, error) {
	if f == nil {
		return nil, errors.New("core: nil distance distribution")
	}
	if stats == nil {
		return nil, errors.New("core: nil tree stats")
	}
	if stats.Size <= 0 {
		return nil, errors.New("core: tree stats describe an empty tree")
	}
	if len(stats.Levels) != stats.Height {
		return nil, fmt.Errorf("core: stats have %d levels, height %d", len(stats.Levels), stats.Height)
	}
	steps := 40 * f.Bins()
	if steps < 400 {
		steps = 400
	}
	if steps > 8000 {
		steps = 8000
	}
	return &MTreeModel{f: f, stats: stats, steps: steps}, nil
}

// F returns the model's distance distribution.
func (m *MTreeModel) F() *histogram.Histogram { return m.f }

// N returns the number of indexed objects.
func (m *MTreeModel) N() int { return m.stats.Size }

// RangeN predicts range(Q, rQ) costs with the node-based model:
// nodes = Σ_i F(r(N_i) + rQ) (Eq. 6), dists = Σ_i e(N_i) F(r(N_i) + rQ)
// (Eq. 7).
func (m *MTreeModel) RangeN(rq float64) CostEstimate {
	var est CostEstimate
	for _, ns := range m.stats.Nodes {
		p := m.f.CDF(ns.Radius + rq)
		est.Nodes += p
		est.Dists += float64(ns.Entries) * p
	}
	return est
}

// RangeL predicts range(Q, rQ) costs with the level-based model:
// nodes ≈ Σ_l M_l F(r̄_l + rQ) (Eq. 15), dists ≈ Σ_l M_{l+1} F(r̄_l + rQ)
// with M_{L+1} = n (Eq. 16).
func (m *MTreeModel) RangeL(rq float64) CostEstimate {
	var est CostEstimate
	for li, ls := range m.stats.Levels {
		p := m.f.CDF(ls.AvgRadius + rq)
		est.Nodes += float64(ls.Nodes) * p
		// Entries at level l = nodes at level l+1 (objects below leaves).
		below := m.stats.Size
		if li+1 < len(m.stats.Levels) {
			below = m.stats.Levels[li+1].Nodes
		}
		est.Dists += float64(below) * p
	}
	return est
}

// RangeObjects predicts the result cardinality of range(Q, rQ):
// n · F(rQ) (Eq. 8).
func (m *MTreeModel) RangeObjects(rq float64) float64 {
	return float64(m.stats.Size) * m.f.CDF(rq)
}

// clampK bounds a requested neighbor count to the valid [1, n] window.
// The estimators receive k straight from user-facing APIs; k <= 0 or
// k > n would otherwise feed degenerate binomial tails (and from there
// NaN/Inf radii) into admission budgets and router timeouts, so every
// k-taking method clamps first. The convention: k <= 0 prices as k = 1,
// k > n prices as the full scan that retrieving all n objects implies.
func (m *MTreeModel) clampK(k int) int {
	if k < 1 {
		return 1
	}
	if n := m.stats.Size; k > n {
		return n
	}
	return k
}

// NNDistCDF evaluates P_{Q,k}(r) = Pr{nn_{Q,k} <= r}: the probability
// that at least k of the n objects fall within distance r of the query
// (Eq. 9), computed from the binomial tail in log space.
func (m *MTreeModel) NNDistCDF(k int, r float64) float64 {
	return numeric.BinomialTail(m.stats.Size, m.clampK(k), m.f.CDF(r))
}

// ExpectedNNDist predicts E[nn_{Q,k}], the expected distance of the k-th
// nearest neighbor: d+ − ∫ P_{Q,k}(r) dr (Eq. 11; Eq. 14 for k=1).
func (m *MTreeModel) ExpectedNNDist(k int) float64 {
	bound := m.f.Bound()
	integral := numeric.Trapezoid(func(r float64) float64 {
		return m.NNDistCDF(k, r)
	}, 0, bound, m.steps)
	return bound - integral
}

// RadiusForExpectedObjects returns r(c) = min{r : n·F(r) >= c}, the
// radius at which the expected result cardinality reaches c — the
// paper's third NN estimator uses r(1) (Section 4, model 3).
func (m *MTreeModel) RadiusForExpectedObjects(c float64) float64 {
	return m.f.Quantile(c / float64(m.stats.Size))
}

// nnIntegrate computes ∫ g(r) p_k(r) dr as a Stieltjes sum against
// P_{Q,k}, avoiding the fragile density p_k (Eq. 10): each grid cell
// contributes g(midpoint) · ΔP.
func (m *MTreeModel) nnIntegrate(k int, g func(r float64) float64) float64 {
	return numeric.Stieltjes(g, func(r float64) float64 {
		return m.NNDistCDF(k, r)
	}, 0, m.f.Bound(), m.steps)
}

// NNN predicts NN(Q, k) costs with the node-based model by integrating
// the range costs over the k-NN distance distribution (the k=1 case is
// the paper's Eq. for nodes(NN(Q,1)) and dists(NN(Q,1))).
func (m *MTreeModel) NNN(k int) CostEstimate {
	return CostEstimate{
		Nodes: m.nnIntegrate(k, func(r float64) float64 { return m.RangeN(r).Nodes }),
		Dists: m.nnIntegrate(k, func(r float64) float64 { return m.RangeN(r).Dists }),
	}
}

// NNL predicts NN(Q, k) costs with the level-based model (Eq. 17-18).
func (m *MTreeModel) NNL(k int) CostEstimate {
	return CostEstimate{
		Nodes: m.nnIntegrate(k, func(r float64) float64 { return m.RangeL(r).Nodes }),
		Dists: m.nnIntegrate(k, func(r float64) float64 { return m.RangeL(r).Dists }),
	}
}

// NNLPrefix returns NNL(k) for every k = 1..min(K, n), each equal to
// NNL(k) bit for bit, in one pass over the integration grid. NNL(k)
// spends its time on P_{Q,k} at the grid points — a binomial sum of up
// to n/2 terms at each, twice, once per cost — while the range costs it
// weighs do not depend on k. The pass evaluates those once per cell,
// takes P_{Q,k} for all k from one loop over the terms
// (numeric.BinomialPrefix) and accumulates both costs together: all K
// prices for about a tenth of what NNL(K) alone costs
// (BenchmarkNNLPrefix). Past K = numeric.LowerTailMaxK(n) the loop also
// runs the upper tail, from i = n down, which costs as much again.
func (m *MTreeModel) NNLPrefix(K int) []CostEstimate {
	n := m.stats.Size
	K = min(K, n)
	if K < 1 {
		return nil
	}
	est := make([]CostEstimate, K)
	bound := m.f.Bound()
	if bound == 0 {
		return est
	}
	tails := numeric.NewBinomialPrefix(n, K)
	prev, next := make([]float64, K), make([]float64, K)
	// The grid and the order of operations are numeric.Stieltjes's over
	// [0, bound].
	h := bound / float64(m.steps)
	tails.Tails(m.f.CDF(0), prev)
	for i := 0; i < m.steps; i++ {
		x0 := float64(i) * h
		tails.Tails(m.f.CDF(x0+h), next)
		g := m.RangeL(x0 + h/2)
		for k := range est {
			dp := next[k] - prev[k]
			est[k].Nodes += g.Nodes * dp
			est[k].Dists += g.Dists * dp
		}
		prev, next = next, prev
	}
	return est
}

// nnTable is a cache in front of NNL and ExpectedNNDist, keyed by
// clamped k. Both are functions of (F̂, tree statistics, k) alone and a
// model never changes after NewMTreeModel — every refresh path fits a
// new model and swaps the pointer — so an entry can never go stale and
// dropping the model is the invalidation. It grows by one entry per
// distinct k asked for, n at most.
type nnTable struct {
	mu  sync.Mutex
	byK map[int]*nnEntry
}

// nnEntry fills each integral on first use, once, however many
// goroutines ask together; those asking for another k are not held up.
type nnEntry struct {
	costOnce, distOnce sync.Once
	cost               CostEstimate
	dist               float64
}

func (m *MTreeModel) nnEntry(k int) *nnEntry {
	k = m.clampK(k)
	m.nn.mu.Lock()
	defer m.nn.mu.Unlock()
	e := m.nn.byK[k]
	if e == nil {
		if m.nn.byK == nil {
			m.nn.byK = make(map[int]*nnEntry)
		}
		e = &nnEntry{}
		m.nn.byK[k] = e
	}
	return e
}

// NNLCached returns NNL(k), computing it the first time this model is
// asked for k (after clamping) and remembering it. The distributed
// tier prices through it: a router or a shard node quotes the same few
// k on every request, and one NNL is hundreds of times the search it
// prices (DESIGN.md "What pricing costs").
func (m *MTreeModel) NNLCached(k int) CostEstimate {
	e := m.nnEntry(k)
	e.costOnce.Do(func() { e.cost = m.NNL(k) })
	return e.cost
}

// ExpectedNNDistCached is ExpectedNNDist(k) through the same table.
func (m *MTreeModel) ExpectedNNDistCached(k int) float64 {
	e := m.nnEntry(k)
	e.distOnce.Do(func() { e.dist = m.ExpectedNNDist(k) })
	return e.dist
}

// CachedKs returns how many distinct (clamped) k the table holds.
func (m *MTreeModel) CachedKs() int {
	m.nn.mu.Lock()
	defer m.nn.mu.Unlock()
	return len(m.nn.byK)
}

// NNViaExpectedDist predicts NN(Q,k) costs as those of a range query
// with radius E[nn_{Q,k}] — the paper's second NN estimator (Section 4,
// model 2). Level-based range costs are used, matching Figure 2.
func (m *MTreeModel) NNViaExpectedDist(k int) CostEstimate {
	return m.RangeL(m.ExpectedNNDist(k))
}

// NNViaR1 predicts NN(Q,k) costs as those of a range query with radius
// r(k), the radius whose expected result cardinality is k — the paper's
// third NN estimator (r(1) for k=1).
func (m *MTreeModel) NNViaR1(k int) CostEstimate {
	return m.RangeL(m.RadiusForExpectedObjects(float64(m.clampK(k))))
}

// binomTail is numeric.BinomialTail, aliased locally so model variants
// share one import site.
func binomTail(n, k int, p float64) float64 {
	return numeric.BinomialTail(n, k, p)
}

// RangeLByLevel returns the level-based range prediction broken down per
// tree level (root first) — the model side of a query "explain".
func (m *MTreeModel) RangeLByLevel(rq float64) []CostEstimate {
	out := make([]CostEstimate, len(m.stats.Levels))
	for li, ls := range m.stats.Levels {
		p := m.f.CDF(ls.AvgRadius + rq)
		below := m.stats.Size
		if li+1 < len(m.stats.Levels) {
			below = m.stats.Levels[li+1].Nodes
		}
		out[li] = CostEstimate{
			Nodes: float64(ls.Nodes) * p,
			Dists: float64(below) * p,
		}
	}
	return out
}

// NNDistQuantile returns the p-quantile of the k-NN distance: the
// smallest radius r with P_{Q,k}(r) >= p. Approximate NN search uses it
// as a stop radius — with probability >= p the true k-th neighbor lies
// within it, so searching no farther sacrifices recall only in the
// remaining tail (the PAC flavor of NN search built on Eq. 9).
func (m *MTreeModel) NNDistQuantile(k int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return m.f.Bound()
	}
	return numeric.Bisect(func(r float64) float64 {
		return m.NNDistCDF(k, r)
	}, p, 0, m.f.Bound(), m.f.Bound()/1e6)
}
