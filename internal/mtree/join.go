package mtree

import (
	"errors"
	"fmt"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// SimilarityJoin computes the self-join of the tree: every unordered
// pair of distinct indexed objects within eps of each other. The
// tree-vs-tree traversal prunes a node pair when the distance between
// their routing objects exceeds the sum of both covering radii plus eps
// (triangle inequality, the same bound that drives the cost model), so
// clustered data joins far below the O(n²) distance computations of the
// nested-loop baseline.
type JoinPair struct {
	A, B     Match
	Distance float64
}

// SimilarityJoin returns all pairs (a, b) with a.OID < b.OID and
// d(a, b) <= eps.
func (t *Tree) SimilarityJoin(eps float64) ([]JoinPair, error) {
	if eps < 0 {
		return nil, fmt.Errorf("mtree: negative join radius %g", eps)
	}
	if t.root == pager.InvalidPage {
		return nil, nil
	}
	var out []JoinPair
	err := t.joinNodes(t.root, t.root, eps, &out)
	return out, err
}

// joinNodes emits qualifying pairs between the subtrees at a and b
// (a == b handles the self-join diagonal).
func (t *Tree) joinNodes(a, b pager.PageID, eps float64, out *[]JoinPair) error {
	na, err := t.fetch(a)
	if err != nil {
		return err
	}
	var nb *node
	if a == b {
		nb = na
	} else {
		nb, err = t.fetch(b)
		if err != nil {
			return err
		}
	}
	switch {
	case na.leaf && nb.leaf:
		for i := range na.entries {
			jStart := 0
			if a == b {
				jStart = i + 1
			}
			for j := jStart; j < len(nb.entries); j++ {
				ea, eb := &na.entries[i], &nb.entries[j]
				d := t.dist(ea.Object, eb.Object)
				if d > eps {
					continue
				}
				// Each unordered node pair is visited exactly once and
				// every object lives in one leaf, so normalizing the OID
				// order emits each pair exactly once.
				lo, hi := ea, eb
				if lo.OID > hi.OID {
					lo, hi = hi, lo
				}
				*out = append(*out, JoinPair{
					A:        Match{Object: lo.Object, OID: lo.OID},
					B:        Match{Object: hi.Object, OID: hi.OID},
					Distance: d,
				})
			}
		}
		return nil
	case !na.leaf && !nb.leaf:
		for i := range na.entries {
			jStart := 0
			if a == b {
				jStart = i // include the diagonal child pair once
			}
			for j := jStart; j < len(nb.entries); j++ {
				ea, eb := &na.entries[i], &nb.entries[j]
				if a == b && i == j {
					if err := t.joinNodes(ea.Child, eb.Child, eps, out); err != nil {
						return err
					}
					continue
				}
				if t.dist(ea.Object, eb.Object) <= ea.Radius+eb.Radius+eps {
					if err := t.joinNodes(ea.Child, eb.Child, eps, out); err != nil {
						return err
					}
				}
			}
		}
		return nil
	case na.leaf:
		// Mixed depths cannot happen in a balanced self-join.
		return errors.New("mtree: join reached mismatched node depths")
	default:
		return errors.New("mtree: join reached mismatched node depths")
	}
}

// NestedLoopJoin is the quadratic baseline over a plain object slice.
func NestedLoopJoin(objs []metric.Object, space *metric.Space, eps float64) []JoinPair {
	var out []JoinPair
	for i := 0; i < len(objs); i++ {
		for j := i + 1; j < len(objs); j++ {
			if d := space.Distance(objs[i], objs[j]); d <= eps {
				out = append(out, JoinPair{
					A:        Match{Object: objs[i], OID: uint64(i)},
					B:        Match{Object: objs[j], OID: uint64(j)},
					Distance: d,
				})
			}
		}
	}
	return out
}
