package mtree

import (
	"errors"
	"fmt"
	"math"

	"mcost/internal/budget"
	"mcost/internal/metric"
	"mcost/internal/pager"
)

// Complex similarity queries — conjunctions and disjunctions of range
// predicates over the same tree — are the extension the paper's
// conclusions point to (its reference [11], EDBT'98). A node can be
// pruned for a conjunction when ANY predicate ball misses its region,
// and for a disjunction only when ALL of them do; a leaf object
// qualifies when all (resp. any) predicates hold.

// Pred is one range predicate of a complex query.
type Pred struct {
	Q      metric.Object
	Radius float64
}

func validatePreds(preds []Pred) error {
	if len(preds) == 0 {
		return errors.New("mtree: complex query needs at least one predicate")
	}
	for i, p := range preds {
		if p.Q == nil {
			return fmt.Errorf("mtree: predicate %d has nil query object", i)
		}
		if !(p.Radius >= 0) {
			return fmt.Errorf("mtree: predicate %d has negative or NaN radius %g", i, p.Radius)
		}
	}
	return nil
}

// RangeAnd returns the objects satisfying every predicate. Distances to
// each predicate's query object are counted per evaluation, so the CPU
// cost of a 2-predicate conjunction on an accessed node is up to
// 2·e(N) — short-circuited when an earlier predicate already fails.
// opt.Budget and opt.Ctx stop it like Range, with the partial matches.
func (t *Tree) RangeAnd(preds []Pred, opt QueryOptions) ([]Match, error) {
	return t.complexQuery(preds, true, opt)
}

// RangeOr returns the objects satisfying at least one predicate.
func (t *Tree) RangeOr(preds []Pred, opt QueryOptions) ([]Match, error) {
	return t.complexQuery(preds, false, opt)
}

func (t *Tree) complexQuery(preds []Pred, conj bool, opt QueryOptions) ([]Match, error) {
	if err := validatePreds(preds); err != nil {
		return nil, err
	}
	if t.root == pager.InvalidPage {
		return nil, nil
	}
	var out []Match
	dq := make([]float64, len(preds))
	for i := range dq {
		dq[i] = math.NaN()
	}
	err := t.complexAt(t.root, preds, dq, conj, opt, opt.guard(), &out)
	return out, err
}

// complexAt is the shared traversal. distQP[i] is d(preds[i].Q, routing
// object of this node), NaN at the root. conj selects AND (true) or OR.
func (t *Tree) complexAt(id pager.PageID, preds []Pred, distQP []float64, conj bool, opt QueryOptions, g *budget.Guard, out *[]Match) error {
	if err := g.BeforeFetch(); err != nil {
		return err
	}
	n, err := t.fetch(id)
	if err != nil {
		return err
	}
	childDists := make([]float64, len(preds))
	for i := range n.entries {
		e := &n.entries[i]
		// For each predicate decide whether it can hold in this entry's
		// region (internal) or for this object (leaf). minDist is the
		// proven lower bound |d(Q,parent) - parentDist| when available.
		anyHolds := false
		allHold := true
		for pi, p := range preds {
			bound := p.Radius
			if !n.leaf {
				bound += e.Radius
			}
			childDists[pi] = math.NaN()
			if opt.UseParentDist && parentPrunes(distQP[pi], e.ParentDist, bound) {
				allHold = false
				if conj {
					break // one failed predicate kills a conjunction
				}
				continue
			}
			if err := g.OnDist(); err != nil {
				return err
			}
			d := t.dist(p.Q, e.Object)
			childDists[pi] = d
			if d <= bound {
				anyHolds = true
			} else {
				allHold = false
				if conj {
					break
				}
			}
		}
		qualifies := anyHolds
		if conj {
			qualifies = allHold
		}
		if !qualifies {
			continue
		}
		if n.leaf {
			// Report the smallest computed predicate distance (a pruned
			// predicate in a disjunction leaves NaN, never the minimum
			// of a qualifying entry).
			best := math.Inf(1)
			for _, d := range childDists {
				if !math.IsNaN(d) && d < best {
					best = d
				}
			}
			*out = append(*out, Match{Object: e.Object, OID: e.OID, Distance: best})
			continue
		}
		// Descend: children see the distances just computed. Predicates
		// skipped by parent-distance pruning in a disjunction carry NaN,
		// disabling their pruning below (conservative, never wrong).
		next := make([]float64, len(preds))
		copy(next, childDists)
		if err := t.complexAt(e.Child, preds, next, conj, opt, g, out); err != nil {
			return err
		}
	}
	return nil
}
