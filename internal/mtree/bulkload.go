package mtree

import (
	"errors"
	"fmt"
	"math"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

// BulkLoad builds the tree from scratch over the given objects using the
// BulkLoading algorithm of Ciaccia & Patella (ADC'98): objects are
// recursively clustered around sampled seeds into groups that fill a
// node, one level at a time, bottom-up. Compared to repeated Insert it
// produces better-filled nodes and tighter covering radii at a fraction
// of the distance computations. The paper's evaluation builds all its
// M-trees this way (4 KB nodes, 30% minimum utilization).
//
// The tree must be empty. OIDs are assigned in input order.
func (t *Tree) BulkLoad(objs []metric.Object) error {
	if t.size != 0 {
		return errors.New("mtree: BulkLoad requires an empty tree")
	}
	t.beginWrite()
	if len(objs) == 0 {
		return nil
	}
	if err := t.ensureCodec(objs[0]); err != nil {
		return err
	}
	for i, o := range objs {
		if o == nil {
			return fmt.Errorf("mtree: nil object at %d", i)
		}
		if size := t.opt.Codec.Size(o); size > t.maxObjectBytes() {
			return fmt.Errorf("mtree: object %d of %d bytes too large for page size %d", i, size, t.opt.PageSize)
		}
	}

	// A blItem is either an object (leaf level) or a built subtree
	// (internal levels).
	items := make([]blItem, len(objs))
	for i, o := range objs {
		items[i] = blItem{obj: o, oid: uint64(i), child: pager.InvalidPage}
	}
	leaf := true
	height := 0
	for {
		height++
		if t.levelFitsOneNode(items, leaf) {
			root, err := t.buildNode(items, blGroupSeed{idx: -1}, leaf)
			if err != nil {
				return err
			}
			t.root = root.child
			t.height = height
			t.size = len(objs)
			t.nextOID = uint64(len(objs))
			return nil
		}
		groups, err := t.clusterItems(items, leaf)
		if err != nil {
			return err
		}
		next := make([]blItem, 0, len(groups))
		for _, g := range groups {
			it, err := t.buildNode(g.items, g.seed, leaf)
			if err != nil {
				return err
			}
			next = append(next, it)
		}
		items = next
		leaf = false
	}
}

// blItem is one unit being grouped during bulk loading.
type blItem struct {
	obj    metric.Object
	oid    uint64       // leaf level only
	radius float64      // covering radius of the built subtree (0 at leaf level)
	child  pager.PageID // built subtree root (InvalidPage at leaf level)
	toSeed float64      // distance to the group seed, set during clustering
}

type blGroupSeed struct {
	idx int // index into the group's items of the seed; -1 = unknown
}

type blGroup struct {
	items []blItem
	seed  blGroupSeed
}

// itemEntryBytes returns the on-page size of the entry an item becomes.
func (t *Tree) itemEntryBytes(it blItem, leaf bool) int {
	if leaf {
		return leafEntrySize(t.opt.Codec, it.obj)
	}
	return internalEntrySize(t.opt.Codec, it.obj)
}

func (t *Tree) levelFitsOneNode(items []blItem, leaf bool) bool {
	total := nodeHeaderSize
	for _, it := range items {
		total += t.itemEntryBytes(it, leaf)
		if total > t.opt.PageSize {
			return false
		}
	}
	return true
}

// maxSeedsPerRound caps the fan-out of one clustering round; oversized
// groups recurse, keeping the assignment cost O(n * maxSeeds * depth).
const maxSeedsPerRound = 32

// clusterItems partitions items into groups that each fit one node,
// by recursive assignment to sampled seeds, then merges undersized
// groups into their nearest siblings to respect minUtil.
func (t *Tree) clusterItems(items []blItem, leaf bool) ([]blGroup, error) {
	var bytesTotal int
	for _, it := range items {
		bytesTotal += t.itemEntryBytes(it, leaf)
	}
	target := float64(t.opt.PageSize) * 0.7 // aim below full to absorb merges
	want := int(math.Ceil(float64(bytesTotal) / target))
	if want < 2 {
		want = 2
	}
	k := want
	if k > maxSeedsPerRound {
		k = maxSeedsPerRound
	}
	if k > len(items) {
		k = len(items)
	}

	// Sample k distinct seed positions.
	seedPos := t.rng.Perm(len(items))[:k]
	groups := make([]blGroup, k)
	for gi := range groups {
		groups[gi].seed = blGroupSeed{idx: 0}
	}
	// Assign every item to its nearest seed.
	for i := range items {
		best, bestD := -1, math.Inf(1)
		for gi, sp := range seedPos {
			var d float64
			if i == sp {
				d = 0
			} else {
				d = t.dist(items[i].obj, items[sp].obj)
			}
			if d < bestD {
				best, bestD = gi, d
			}
		}
		it := items[i]
		it.toSeed = bestD
		if i == seedPos[best] {
			// Keep the seed at position 0 of its group.
			groups[best].items = append([]blItem{it}, groups[best].items...)
		} else {
			groups[best].items = append(groups[best].items, it)
		}
	}
	// Drop empty groups (possible when duplicate objects collapse).
	out := groups[:0]
	for _, g := range groups {
		if len(g.items) > 0 {
			out = append(out, g)
		}
	}
	groups = out

	// Recurse into groups that do not fit one node.
	var final []blGroup
	for _, g := range groups {
		if t.levelFitsOneNode(g.items, leaf) {
			final = append(final, g)
			continue
		}
		if len(g.items) == len(items) {
			// Degenerate: every item gravitated to a single seed (e.g.
			// heavy duplication). Split evenly; the second half's seed
			// changes, so its distances must be recomputed. A half that
			// still overflows a node is clustered again. The first half
			// is capped at its length: a group merged into it later must
			// not append over the second.
			half := len(g.items) / 2
			tail := g.items[half:]
			for i := range tail {
				tail[i].toSeed = math.NaN()
			}
			for _, h := range [][]blItem{g.items[:half:half], tail} {
				if t.levelFitsOneNode(h, leaf) {
					final = append(final, blGroup{items: h, seed: blGroupSeed{idx: 0}})
					continue
				}
				sub, err := t.clusterItems(h, leaf)
				if err != nil {
					return nil, err
				}
				final = append(final, sub...)
			}
			continue
		}
		sub, err := t.clusterItems(g.items, leaf)
		if err != nil {
			return nil, err
		}
		final = append(final, sub...)
	}
	return t.mergeUndersized(final, leaf), nil
}

// mergeUndersized folds groups below the minUtil byte threshold into the
// nearest (by seed distance) group with room, honoring the paper's 30%
// minimum node utilization.
func (t *Tree) mergeUndersized(groups []blGroup, leaf bool) []blGroup {
	if len(groups) <= 1 {
		return groups
	}
	minBytes := int(minUtil * float64(t.opt.PageSize))
	bytesOf := func(g blGroup) int {
		total := nodeHeaderSize
		for _, it := range g.items {
			total += t.itemEntryBytes(it, leaf)
		}
		return total
	}
	for {
		merged := false
		for i := range groups {
			if len(groups) <= 1 {
				break
			}
			bi := bytesOf(groups[i])
			if bi >= minBytes {
				continue
			}
			// Find the nearest other group whose node can absorb this one.
			seedI := groups[i].items[groups[i].seed.idx].obj
			best, bestD := -1, math.Inf(1)
			for j := range groups {
				if j == i {
					continue
				}
				if bytesOf(groups[j])+bi-nodeHeaderSize > t.opt.PageSize {
					continue
				}
				d := t.dist(seedI, groups[j].items[groups[j].seed.idx].obj)
				if d < bestD {
					best, bestD = j, d
				}
			}
			if best < 0 {
				continue
			}
			// Re-anchor the moved items to the absorbing group's seed.
			dst := &groups[best]
			seedObj := dst.items[dst.seed.idx].obj
			for _, it := range groups[i].items {
				it.toSeed = t.dist(it.obj, seedObj)
				dst.items = append(dst.items, it)
			}
			groups = append(groups[:i], groups[i+1:]...)
			merged = true
			break
		}
		if !merged {
			return groups
		}
	}
}

// buildNode materializes one node from a group and returns the item
// representing it at the next level: the routing object (the group
// seed), the node's covering radius, and the page ID. A seed index of -1
// (root construction) still picks item 0 as the routing object, but the
// returned radius is computed against it while the node's entries keep
// NaN parent distances, per the root convention.
func (t *Tree) buildNode(items []blItem, seed blGroupSeed, leaf bool) (blItem, error) {
	n, err := t.store.alloc(leaf)
	if err != nil {
		return blItem{}, err
	}
	isRoot := seed.idx < 0
	seedIdx := seed.idx
	if isRoot {
		seedIdx = 0
	}
	routing := items[seedIdx].obj
	var radius float64
	n.entries = make([]Entry, 0, len(items))
	for i, it := range items {
		e := Entry{Object: it.obj}
		d := it.toSeed
		if isRoot || math.IsNaN(d) {
			// Root groups skip clustering, and degenerate splits mark
			// reseated items with NaN: recompute against the routing
			// object. The seed itself is exact.
			if i == seedIdx {
				d = 0
			} else {
				d = t.dist(it.obj, routing)
			}
		}
		if isRoot {
			e.ParentDist = math.NaN()
		} else {
			e.ParentDist = d
		}
		if leaf {
			e.OID = it.oid
		} else {
			e.Radius = it.radius
			e.Child = it.child
		}
		if r := d + it.radius; r > radius {
			radius = r
		}
		n.entries = append(n.entries, e)
	}
	if err := t.store.store(n); err != nil {
		return blItem{}, err
	}
	return blItem{obj: routing, radius: radius, child: n.id}, nil
}
