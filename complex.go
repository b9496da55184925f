package mcost

import (
	"mcost/internal/core"
	"mcost/internal/mtree"
)

// Pred is one range predicate of a complex similarity query (the §6
// extension): all objects within Radius of Q.
type Pred = mtree.Pred

// RangeAnd returns the objects satisfying every predicate (conjunctive
// complex query).
func (ix *Index) RangeAnd(preds []Pred) ([]Match, error) {
	if err := ix.checkPreds(preds); err != nil {
		return nil, err
	}
	return ix.sh.Tree.RangeAnd(preds, mtree.QueryOptions{UseParentDist: true})
}

// RangeOr returns the objects satisfying at least one predicate
// (disjunctive complex query).
func (ix *Index) RangeOr(preds []Pred) ([]Match, error) {
	if err := ix.checkPreds(preds); err != nil {
		return nil, err
	}
	return ix.sh.Tree.RangeOr(preds, mtree.QueryOptions{UseParentDist: true})
}

// checkPreds validates every predicate's query object.
func (ix *Index) checkPreds(preds []Pred) error {
	qs := make([]Object, len(preds))
	for i, p := range preds {
		qs[i] = p.Q
	}
	return ix.check(qs...)
}

// PredictRangeAnd predicts conjunctive-query costs under predicate
// independence: a node is accessed with probability Π F(r(N) + rq_i).
func (ix *Index) PredictRangeAnd(radii []float64) CostEstimate {
	return ix.sh.Model.RangeAndN(radii)
}

// PredictRangeOr predicts disjunctive-query costs:
// Pr{access} = 1 − Π (1 − F(r(N) + rq_i)).
func (ix *Index) PredictRangeOr(radii []float64) CostEstimate {
	return ix.sh.Model.RangeOrN(radii)
}

// PredictSelectivityAnd predicts the conjunction's result cardinality
// under predicate independence.
func (ix *Index) PredictSelectivityAnd(radii []float64) float64 {
	return ix.sh.Model.RangeAndObjects(radii)
}

// PredictSelectivityOr predicts the disjunction's result cardinality.
func (ix *Index) PredictSelectivityOr(radii []float64) float64 {
	return ix.sh.Model.RangeOrObjects(radii)
}

// JoinPair is one result of a similarity self-join.
type JoinPair = mtree.JoinPair

// JoinEstimate is a predicted self-join cost and result size.
type JoinEstimate = core.JoinEstimate

// SimilarityJoin returns every unordered pair of indexed objects within
// eps of each other, using the pruned tree-vs-tree traversal.
func (ix *Index) SimilarityJoin(eps float64) ([]JoinPair, error) {
	return ix.sh.Tree.SimilarityJoin(eps)
}

// PredictJoin predicts the self-join's cost and result size: node pairs
// are compared with probability F(r_i + r_j + eps), and C(n,2)·F(eps)
// object pairs qualify.
func (ix *Index) PredictJoin(eps float64) JoinEstimate {
	return ix.sh.Model.JoinN(eps)
}
