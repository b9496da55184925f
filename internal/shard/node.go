package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
)

// The shard-node surface: one process serves one shard of a shared
// assignment, and a scatter-gather router fronts N of them. Everything
// the router needs to price, prune, and merge without touching the
// data — the shard's F̂, its L-MCM level statistics, and its bounding
// ball — travels as a Summary; BuildOne lets each node derive exactly
// its own partition from the dataset and Options every node shares, so
// the distributed tier answers bit-identically to the in-process Set.

// BuildOne runs the full (deterministic) assignment and builds only
// shard index: the same tree, histogram, and cost model that shard would
// carry inside Build's Set, without paying for the other S−1 builds.
// Every node of a cluster calls BuildOne with identical (objects, opt)
// and its own index.
func BuildOne(space *metric.Space, objects []metric.Object, opt Options, index int) (*Shard, error) {
	if space == nil {
		return nil, errors.New("shard: nil space")
	}
	opt = opt.withDefaults()
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: %d shards", opt.Shards)
	}
	if index < 0 || index >= opt.Shards {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", index, opt.Shards)
	}
	if len(objects) < 2*opt.Shards {
		return nil, fmt.Errorf("shard: %d objects cannot fill %d shards (need >= 2 per shard)", len(objects), opt.Shards)
	}
	parts, pivots, radii, err := assign(space, objects, opt)
	if err != nil {
		return nil, err
	}
	return buildShard(space, objects, parts, pivots, radii, index, opt)
}

// Summary is the wire-exportable view of one shard's cost model: what a
// router needs to price this shard's share of a query (F̂ plus the
// L-MCM level statistics), skip it (pivot ball), and trust the merge
// (size, assignment). It round-trips through JSON; Model reconstructs
// the identical predictor on the far side.
type Summary struct {
	// Shard and Shards locate this partition in the assignment.
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	Assign string `json:"assign"`
	// Size and Height describe the shard tree.
	Size   int `json:"size"`
	Height int `json:"height"`
	// Space reconstructs the metric on the far side; ObjectKind and Dim
	// tell a router how to decode query objects ("vector" or "string").
	Space      metric.SpaceSpec `json:"space"`
	ObjectKind string           `json:"object_kind"`
	Dim        int              `json:"dim,omitempty"`
	// Pivot and Radius are the shard's bounding ball under pivot
	// assignment (Pivot empty for round-robin). With every shard's ball
	// in hand a router prunes by LowerBounds, as the Set does.
	Pivot  json.RawMessage `json:"pivot,omitempty"`
	Radius float64         `json:"radius"`
	// FHat is the shard's distance distribution, Levels the per-level
	// aggregates — together the full L-MCM input.
	FHat   *histogram.Histogram `json:"f_hat"`
	Levels []mtree.LevelStat    `json:"levels"`
	// ScanPages is the page count of a full linear scan of this shard —
	// the node-read side of the scan a router quotes beside its tree
	// fan-out (0 on summaries from nodes that predate the planner).
	ScanPages int `json:"scan_pages,omitempty"`
}

// Summarize exports the shard's model summary. index and total locate
// the shard in its assignment; space must be the space it was built
// over (and must carry a named metric — see metric.SpaceSpec).
func (sh *Shard) Summarize(space *metric.Space, index, total int, assign Assignment) (*Summary, error) {
	spec := space.Spec()
	if _, err := metric.FromSpec(spec); err != nil {
		return nil, fmt.Errorf("shard: space is not wire-exportable: %w", err)
	}
	stats, err := sh.Tree.CollectStats()
	if err != nil {
		return nil, err
	}
	sum := &Summary{
		Shard:  index,
		Shards: total,
		Assign: assign.String(),
		Size:   sh.Tree.Size(),
		Height: sh.Tree.Height(),
		Space:  spec,
		FHat:   sh.F,
		Levels: stats.Levels,
	}
	if pages, err := mtree.ScanPages(sh.Objects[0], sh.Tree.Size(), sh.Tree.PageSize()); err == nil {
		sum.ScanPages = pages
	}
	switch o := sh.Objects[0].(type) {
	case metric.Vector:
		sum.ObjectKind = "vector"
		sum.Dim = len(o)
	case string:
		sum.ObjectKind = "string"
	default:
		return nil, fmt.Errorf("shard: no wire encoding for object type %T", sh.Objects[0])
	}
	if sh.Pivot != nil {
		raw, err := json.Marshal(sh.Pivot)
		if err != nil {
			return nil, err
		}
		sum.Pivot = raw
		sum.Radius = sh.Radius
	} else {
		sum.Radius = space.Bound
	}
	return sum, nil
}

// Model reconstructs the shard's L-MCM predictor from the summary. The
// level statistics and histogram round-trip exactly, so RangeL/NNL on
// the reconstruction equal the shard's own predictions.
func (s *Summary) Model() (*core.MTreeModel, error) {
	if s.FHat == nil {
		return nil, errors.New("shard: summary has no distance distribution")
	}
	if len(s.Levels) != s.Height {
		return nil, fmt.Errorf("shard: summary has %d levels, height %d", len(s.Levels), s.Height)
	}
	stats := &mtree.Stats{Height: s.Height, Size: s.Size, LeafEntries: s.Size, Levels: s.Levels}
	return core.NewMTreeModel(s.FHat, stats)
}

// PivotObject decodes the summary's pivot into a metric object of the
// summary's kind (nil when the assignment has no pivots).
func (s *Summary) PivotObject() (metric.Object, error) {
	if len(s.Pivot) == 0 {
		return nil, nil
	}
	switch s.ObjectKind {
	case "vector":
		var v []float64
		if err := json.Unmarshal(s.Pivot, &v); err != nil {
			return nil, fmt.Errorf("shard: bad pivot: %w", err)
		}
		if s.Dim > 0 && len(v) != s.Dim {
			return nil, fmt.Errorf("shard: pivot has %d coordinates, summary says %d", len(v), s.Dim)
		}
		return metric.Vector(v), nil
	case "string":
		var str string
		if err := json.Unmarshal(s.Pivot, &str); err != nil {
			return nil, fmt.Errorf("shard: bad pivot: %w", err)
		}
		return str, nil
	default:
		return nil, fmt.Errorf("shard: unknown object kind %q", s.ObjectKind)
	}
}

// Node serves exactly one shard behind the HTTP serving layer: it
// satisfies the server's Engine contract (pricing, traced batches,
// structural facts) with results carrying global OIDs, and exports its
// model summary for the router. Nodes are read-only — routed writes
// need global OID coordination the tier does not attempt yet.
type Node struct {
	sh      *Shard
	space   *metric.Space
	index   int
	total   int
	assign  Assignment
	summary json.RawMessage
}

// NewNode wraps one built shard (from BuildOne, or a Set's Shards()[i])
// as a serving engine, pre-marshaling the model summary /v1/model
// serves.
func NewNode(space *metric.Space, sh *Shard, index, total int, assign Assignment) (*Node, error) {
	if sh == nil {
		return nil, errors.New("shard: nil shard")
	}
	sum, err := sh.Summarize(space, index, total, assign)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	return &Node{sh: sh, space: space, index: index, total: total, assign: assign, summary: raw}, nil
}

// Shard returns the wrapped shard.
func (n *Node) Shard() *Shard { return n.sh }

// Index returns the node's shard index within the assignment.
func (n *Node) Index() int { return n.index }

// ModelSummary returns the pre-marshaled shard model summary.
func (n *Node) ModelSummary() (json.RawMessage, error) { return n.summary, nil }

// PriceRange prices one range query against this shard alone.
func (n *Node) PriceRange(radius float64) core.CostEstimate { return n.sh.PriceRange(radius) }

// PriceNN prices one k-NN query against this shard alone.
func (n *Node) PriceNN(k int) core.CostEstimate { return n.sh.PriceNN(k) }

// RangeBatchTraced executes a range batch on the shard tree, rewriting
// results to global OIDs — the shard's share of the in-process Set's
// fan-out, bit-identically.
func (n *Node) RangeBatchTraced(ctx context.Context, qs []metric.Object, radius float64, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	return n.sh.Run(qs, radius, 0, mtree.QueryOptions{UseParentDist: true, Budget: b, Ctx: ctx, Trace: tr})
}

// NNBatchTraced executes a k-NN batch on the shard tree, rewriting
// results to global OIDs.
func (n *Node) NNBatchTraced(ctx context.Context, qs []metric.Object, k int, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	return n.sh.Run(qs, 0, k, mtree.QueryOptions{UseParentDist: true, Budget: b, Ctx: ctx, Trace: tr})
}

// Size returns the shard's object count.
func (n *Node) Size() int { return n.sh.Tree.Size() }

// NumNodes returns the shard tree's node count.
func (n *Node) NumNodes() int { return n.sh.Tree.NumNodes() }

// Height returns the shard tree's height.
func (n *Node) Height() int { return n.sh.Tree.Height() }

// PageSize returns the shard tree's node size.
func (n *Node) PageSize() int { return n.sh.Tree.PageSize() }
