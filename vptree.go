package mcost

import (
	"errors"

	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/metric"
	"mcost/internal/vptree"
)

// VPMatch is one vp-tree query result.
type VPMatch = vptree.Match

// VPOptions configures BuildVPTree.
type VPOptions struct {
	// M is the node fan-out (default 2: a binary vp-tree).
	M int
	// BucketSize is the leaf capacity (default 1, matching the paper's
	// Section 5 model).
	BucketSize int
	// HistogramBins and SamplePairs control the F̂ estimate for the
	// cost model (defaults as in Build).
	HistogramBins int
	SamplePairs   int
	// Seed drives sampling.
	Seed int64
	// Workers bounds the goroutines used to estimate F̂ (0 =
	// runtime.NumCPU()).
	Workers int
}

// VPTree is a built vantage-point tree with its fitted Section 5 cost
// model. The vp-tree is a static, main-memory index: costs are distance
// computations only.
type VPTree struct {
	tree  *vptree.Tree
	model *core.VPModel
	space *Space
	// sample is one indexed object, the reference shape for query
	// validation, as in Index.
	sample Object
}

// VPCost is a predicted vp-tree query cost.
type VPCost = core.VPCost

// BuildVPTree indexes the objects in an m-way vp-tree and fits the
// paper's Section 5 cost model to the estimated distance distribution.
func BuildVPTree(space *Space, objects []Object, opt VPOptions) (*VPTree, error) {
	if space == nil {
		return nil, errors.New("mcost: nil space")
	}
	if len(objects) < 2 {
		return nil, errors.New("mcost: need at least 2 objects")
	}
	tree, err := vptree.Build(objects, vptree.Options{
		Space:      space,
		M:          opt.M,
		BucketSize: opt.BucketSize,
		Seed:       opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	ds := &dataset.Dataset{Name: "vp", Space: space, Objects: objects}
	f, err := distdist.Estimate(ds, distdist.Options{
		Bins:     opt.HistogramBins,
		MaxPairs: opt.SamplePairs,
		Seed:     opt.Seed + 1,
		Workers:  opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	model, err := core.NewVPModel(f, len(objects), tree.M(), tree.BucketSize())
	if err != nil {
		return nil, err
	}
	return &VPTree{tree: tree, model: model, space: space, sample: objects[0]}, nil
}

// Range returns all objects within radius of q. A query the space
// cannot compare is an ErrInvalidQuery, as on Index.
func (vp *VPTree) Range(q Object, radius float64) ([]VPMatch, error) {
	if err := metric.ValidateQuery(vp.space, vp.sample, q); err != nil {
		return nil, err
	}
	return vp.tree.Range(q, radius, nil, nil)
}

// NN returns the k nearest neighbors of q, closest first.
func (vp *VPTree) NN(q Object, k int) ([]VPMatch, error) {
	if err := metric.ValidateQuery(vp.space, vp.sample, q); err != nil {
		return nil, err
	}
	return vp.tree.NN(q, k, nil, nil)
}

// PredictRange predicts the CPU cost of range(Q, radius) with the
// Section 5 model.
func (vp *VPTree) PredictRange(radius float64) VPCost {
	return vp.model.RangeCost(radius)
}

// DistanceCount returns distances computed since the last ResetCosts.
func (vp *VPTree) DistanceCount() int64 { return vp.tree.DistanceCount() }

// ResetCosts zeroes the distance counter.
func (vp *VPTree) ResetCosts() { vp.tree.ResetCounters() }

// Size returns the number of indexed objects.
func (vp *VPTree) Size() int { return vp.tree.Size() }

// NumNodes returns the number of tree nodes.
func (vp *VPTree) NumNodes() int { return vp.tree.NumNodes() }

// PredictNN predicts the CPU cost of NN(Q, k) with the completed
// Section 5 model (the paper sketches the range case and notes the NN
// extension "follows the same principles").
func (vp *VPTree) PredictNN(k int) VPCost {
	return vp.model.NNCost(k)
}
