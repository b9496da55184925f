package mtree

import (
	"fmt"
	"math"
	"sort"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// splitResult carries the two routing entries produced by a node split
// up to the parent, which replaces the old child entry with e1 and adds
// e2. ParentDist of both entries is set by the caller (the parent knows
// its own routing object; the split node does not).
type splitResult struct {
	e1, e2 Entry
}

// insertAt descends from node id inserting (obj, oid). distToRouting is
// d(obj, routing object of this node); routing is that object itself
// (nil at the root, whose region has no routing object). A non-nil
// splitResult means this node split and the parent must patch itself.
func (t *Tree) insertAt(id pager.PageID, obj metric.Object, oid uint64, distToRouting float64, routing metric.Object) (*splitResult, error) {
	n, err := t.fetch(id)
	if err != nil {
		return nil, err
	}
	if n.leaf {
		n.entries = append(n.entries, Entry{Object: obj, OID: oid, ParentDist: distToRouting})
		if n.bytes(t.opt.Codec) <= t.opt.PageSize {
			return nil, t.store.store(n)
		}
		return t.split(n, routing)
	}

	// Choose the subtree: prefer entries whose region already contains
	// the object (d <= covering radius), minimizing d; otherwise the
	// entry needing the least radius enlargement.
	dists := make([]float64, len(n.entries))
	bestIn, bestOut := -1, -1
	for i, e := range n.entries {
		dists[i] = t.dist(obj, e.Object)
		if dists[i] <= e.Radius {
			if bestIn < 0 || dists[i] < dists[bestIn] {
				bestIn = i
			}
		} else if bestOut < 0 || dists[i]-n.entries[i].Radius < dists[bestOut]-n.entries[bestOut].Radius {
			bestOut = i
		}
	}
	idx := bestIn
	enlarged := false
	if idx < 0 {
		idx = bestOut
		n.entries[idx].Radius = dists[idx]
		enlarged = true
	}
	chosen := n.entries[idx]
	split, err := t.insertAt(chosen.Child, obj, oid, dists[idx], chosen.Object)
	if err != nil {
		return nil, err
	}
	if split == nil {
		if enlarged {
			return nil, t.store.store(n)
		}
		return nil, nil
	}
	// The child split: patch this node.
	if routing != nil {
		split.e1.ParentDist = t.dist(split.e1.Object, routing)
		split.e2.ParentDist = t.dist(split.e2.Object, routing)
	} else {
		split.e1.ParentDist = math.NaN()
		split.e2.ParentDist = math.NaN()
	}
	n.entries[idx] = split.e1
	n.entries = append(n.entries, split.e2)
	if n.bytes(t.opt.Codec) <= t.opt.PageSize {
		return nil, t.store.store(n)
	}
	return t.split(n, routing)
}

// split divides node n's (overflowing) entries between n and a fresh
// sibling according to the configured promotion and partition policies,
// stores both, and returns the two routing entries for the parent.
func (t *Tree) split(n *node, parentRouting metric.Object) (*splitResult, error) {
	all := n.entries
	if len(all) < 2 {
		return nil, fmt.Errorf("mtree: cannot split node %d with %d entries", n.id, len(all))
	}
	p1, p2, g1, g2, d1, d2 := t.choosePromotion(all, n.leaf)

	n2, err := t.store.alloc(n.leaf)
	if err != nil {
		return nil, err
	}
	n.entries = assignGroup(all, g1, d1)
	n2.entries = assignGroup(all, g2, d2)
	if err := t.store.store(n); err != nil {
		return nil, err
	}
	if err := t.store.store(n2); err != nil {
		return nil, err
	}

	e1 := Entry{
		Object: all[p1].Object,
		Radius: coveringRadius(n.entries, n.leaf),
		Child:  n.id,
	}
	e2 := Entry{
		Object: all[p2].Object,
		Radius: coveringRadius(n2.entries, n2.leaf),
		Child:  n2.id,
	}
	_ = parentRouting // ParentDist is patched by the caller, which owns the routing object.
	return &splitResult{e1: e1, e2: e2}, nil
}

// assignGroup copies the selected entries, updating each ParentDist to
// the distance to the group's promoted object (already computed during
// partitioning).
func assignGroup(all []Entry, idx []int, dists []float64) []Entry {
	out := make([]Entry, len(idx))
	for i, j := range idx {
		out[i] = all[j]
		out[i].ParentDist = dists[i]
	}
	return out
}

// coveringRadius computes the radius of a node given its entries'
// distances to the routing object: max ParentDist for leaves, max
// (ParentDist + child radius) for internal nodes.
func coveringRadius(entries []Entry, leaf bool) float64 {
	var r float64
	for _, e := range entries {
		d := e.ParentDist
		if !leaf {
			d += e.Radius
		}
		if d > r {
			r = d
		}
	}
	return r
}

// choosePromotion picks the two promoted entries and partitions all
// entries between them. It returns the promoted indices, the two groups
// as index slices, and each group member's distance to its promoted
// object (aligned with the group slices).
func (t *Tree) choosePromotion(all []Entry, leaf bool) (p1, p2 int, g1, g2 []int, d1, d2 []float64) {
	switch t.opt.Promote {
	case PromoteRandom:
		p1 = t.rng.Intn(len(all))
		p2 = t.rng.Intn(len(all) - 1)
		if p2 >= p1 {
			p2++
		}
		g1, g2, d1, d2 = t.partition(all, p1, p2, leaf)
		return
	case PromoteMinMaxRadius:
		type pair struct{ a, b int }
		var candidates []pair
		total := len(all) * (len(all) - 1) / 2
		if total <= promoteSamples {
			for i := 0; i < len(all); i++ {
				for j := i + 1; j < len(all); j++ {
					candidates = append(candidates, pair{i, j})
				}
			}
		} else {
			seen := make(map[pair]bool, promoteSamples)
			for len(candidates) < promoteSamples {
				a := t.rng.Intn(len(all))
				b := t.rng.Intn(len(all) - 1)
				if b >= a {
					b++
				}
				if a > b {
					a, b = b, a
				}
				p := pair{a, b}
				if seen[p] {
					continue
				}
				seen[p] = true
				candidates = append(candidates, p)
			}
		}
		best := math.Inf(1)
		for _, c := range candidates {
			cg1, cg2, cd1, cd2 := t.partition(all, c.a, c.b, leaf)
			r1 := radiusOf(all, cg1, cd1, leaf)
			r2 := radiusOf(all, cg2, cd2, leaf)
			if m := math.Max(r1, r2); m < best {
				best = m
				p1, p2, g1, g2, d1, d2 = c.a, c.b, cg1, cg2, cd1, cd2
			}
		}
		return
	default:
		panic(fmt.Sprintf("mtree: unknown promote policy %v", t.opt.Promote))
	}
}

func radiusOf(all []Entry, idx []int, dists []float64, leaf bool) float64 {
	var r float64
	for i, j := range idx {
		d := dists[i]
		if !leaf {
			d += all[j].Radius
		}
		if d > r {
			r = d
		}
	}
	return r
}

// partition splits all entries 50/50 between promoted entries p1 and
// p2, alternately assigning the unassigned entry nearest to each
// (M-tree's BAL strategy). The promoted entries themselves join their
// own groups. Returned distances align with the group index slices.
func (t *Tree) partition(all []Entry, p1, p2 int, leaf bool) (g1, g2 []int, d1, d2 []float64) {
	// Distances of every entry to both promoted objects.
	da := make([]float64, len(all))
	db := make([]float64, len(all))
	for i := range all {
		switch i {
		case p1:
			da[i] = 0
			db[i] = t.dist(all[i].Object, all[p2].Object)
		case p2:
			da[i] = t.dist(all[i].Object, all[p1].Object)
			db[i] = 0
		default:
			da[i] = t.dist(all[i].Object, all[p1].Object)
			db[i] = t.dist(all[i].Object, all[p2].Object)
		}
	}
	add1 := func(i int) { g1 = append(g1, i); d1 = append(d1, da[i]) }
	add2 := func(i int) { g2 = append(g2, i); d2 = append(d2, db[i]) }

	// Two presorted orders make the alternation O(c log c).
	orderA := sortedByDist(da)
	orderB := sortedByDist(db)
	assigned := make([]bool, len(all))
	remaining := len(all)
	ia, ib := 0, 0
	for remaining > 0 {
		for assigned[orderA[ia]] {
			ia++
		}
		assigned[orderA[ia]] = true
		add1(orderA[ia])
		remaining--
		if remaining == 0 {
			break
		}
		for assigned[orderB[ib]] {
			ib++
		}
		assigned[orderB[ib]] = true
		add2(orderB[ib])
		remaining--
	}
	return
}

// sortedByDist returns entry indices ordered by increasing distance.
func sortedByDist(d []float64) []int {
	order := make([]int, len(d))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return d[order[x]] < d[order[y]] })
	return order
}
