package mcost

import (
	"mcost/internal/core"
	"mcost/internal/mtree"
	"mcost/internal/shard"
)

// Pred is one range predicate of a complex similarity query (the §6
// extension): all objects within Radius of Q.
type Pred = mtree.Pred

// RangeAnd returns the objects satisfying every predicate (conjunctive
// complex query), concatenated in shard order.
func (ix *Index) RangeAnd(preds []Pred) ([]Match, error) {
	return ix.complexQuery(preds, (*mtree.Tree).RangeAnd)
}

// RangeOr returns the objects satisfying at least one predicate
// (disjunctive complex query), concatenated in shard order.
func (ix *Index) RangeOr(preds []Pred) ([]Match, error) {
	return ix.complexQuery(preds, (*mtree.Tree).RangeOr)
}

// complexQuery validates every predicate's query object and runs the
// complex query on each shard in turn. On a stop the matches found so
// far are returned with the error.
func (ix *Index) complexQuery(preds []Pred, run func(*mtree.Tree, []Pred, mtree.QueryOptions) ([]Match, error)) ([]Match, error) {
	qs := make([]Object, len(preds))
	for i, p := range preds {
		qs[i] = p.Q
	}
	if err := ix.check(qs...); err != nil {
		return nil, err
	}
	var out []Match
	for _, sh := range ix.set.Shards() {
		ms, err := run(sh.Tree, preds, mtree.QueryOptions{UseParentDist: true})
		out = append(out, sh.Global(ms)...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
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
