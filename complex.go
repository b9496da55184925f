package mcost

import (
	"math"

	"mcost/internal/core"
	"mcost/internal/mtree"
	"mcost/internal/shard"
)

// Pred is one range predicate of a complex similarity query (the §6
// extension): all objects within Radius of Q.
type Pred = mtree.Pred

// RangeAnd returns the objects satisfying every predicate (conjunctive
// complex query); ErrSharded on a sharded index.
func (ix *Index) RangeAnd(preds []Pred) ([]Match, error) {
	sh, err := ix.checkPreds(preds)
	if err != nil {
		return nil, err
	}
	return sh.Tree.RangeAnd(preds, mtree.QueryOptions{UseParentDist: true})
}

// RangeOr returns the objects satisfying at least one predicate
// (disjunctive complex query); ErrSharded on a sharded index.
func (ix *Index) RangeOr(preds []Pred) ([]Match, error) {
	sh, err := ix.checkPreds(preds)
	if err != nil {
		return nil, err
	}
	return sh.Tree.RangeOr(preds, mtree.QueryOptions{UseParentDist: true})
}

// checkPreds returns the one tree a complex query runs on, after
// validating every predicate's query object.
func (ix *Index) checkPreds(preds []Pred) (*shard.Shard, error) {
	qs := make([]Object, len(preds))
	for i, p := range preds {
		qs[i] = p.Q
	}
	if err := ix.check(qs...); err != nil {
		return nil, err
	}
	return ix.single()
}

// PredictRangeAnd predicts conjunctive-query costs under predicate
// independence: a node is accessed with probability Π F(r(N) + rq_i).
func (ix *Index) PredictRangeAnd(radii []float64) CostEstimate {
	return ix.set.Sum(func(sh *shard.Shard) CostEstimate { return sh.Model.RangeAndN(radii) })
}

// PredictRangeOr predicts disjunctive-query costs:
// Pr{access} = 1 − Π (1 − F(r(N) + rq_i)).
func (ix *Index) PredictRangeOr(radii []float64) CostEstimate {
	return ix.set.Sum(func(sh *shard.Shard) CostEstimate { return sh.Model.RangeOrN(radii) })
}

// PredictSelectivityAnd predicts the conjunction's result cardinality
// under predicate independence.
func (ix *Index) PredictSelectivityAnd(radii []float64) float64 {
	return ix.sumFloat(func(m *core.MTreeModel) float64 { return m.RangeAndObjects(radii) })
}

// PredictSelectivityOr predicts the disjunction's result cardinality.
func (ix *Index) PredictSelectivityOr(radii []float64) float64 {
	return ix.sumFloat(func(m *core.MTreeModel) float64 { return m.RangeOrObjects(radii) })
}

// JoinPair is one result of a similarity self-join.
type JoinPair = mtree.JoinPair

// JoinEstimate is a predicted self-join cost and result size.
type JoinEstimate = core.JoinEstimate

// SimilarityJoin returns every unordered pair of indexed objects within
// eps of each other, using the pruned tree-vs-tree traversal;
// ErrSharded on a sharded index.
func (ix *Index) SimilarityJoin(eps float64) ([]JoinPair, error) {
	sh, err := ix.single()
	if err != nil {
		return nil, err
	}
	return sh.Tree.SimilarityJoin(eps)
}

// PredictJoin predicts the self-join's cost and result size: node pairs
// are compared with probability F(r_i + r_j + eps), and C(n,2)·F(eps)
// object pairs qualify. Every field is NaN on a sharded index, where
// the pairs that cross shards have no model.
func (ix *Index) PredictJoin(eps float64) JoinEstimate {
	sh, err := ix.single()
	if err != nil {
		return JoinEstimate{LeafPairVisits: math.NaN(), Dists: math.NaN(), Pairs: math.NaN()}
	}
	return sh.Model.JoinN(eps)
}
