package mcost

import (
	"mcost/internal/shard"
	"mcost/internal/workload"
)

// QueryClass is one component of a mixed workload: a weighted range or
// k-NN query shape.
type QueryClass = workload.QueryClass

// Workload is a weighted mix of query classes for capacity planning.
type Workload = workload.Workload

// WorkloadReport compares the model's predictions with measured
// execution for a workload mix.
type WorkloadReport = workload.Report

// WorkloadOptions configures RunWorkload.
type WorkloadOptions = workload.Options

// RunWorkload executes the mixed workload against the index with
// queries sampled from pool (objects following the data distribution)
// in batches of opt.Batch, with the parent-distance optimization as
// opt.UseParentDist says, and scores the N-MCM predictions (PredictRange,
// PredictNN) per class and overall — the capacity-planning loop the
// paper motivates.
func (ix *Index) RunWorkload(w *Workload, pool []Object, opt WorkloadOptions) (*WorkloadReport, error) {
	if err := ix.check(pool...); err != nil {
		return nil, err
	}
	return workload.RunEngine(workloadEngine{ix.set, shard.QueryOptions{UseParentDist: opt.UseParentDist, Workers: ix.workers}}, ix, w, pool, opt)
}

// workloadEngine runs a workload's batches on the shard set.
type workloadEngine struct {
	*shard.Set
	opt shard.QueryOptions
}

func (e workloadEngine) RangeBatch(qs []Object, radius float64) ([][]Match, error) {
	return e.Set.RangeBatch(qs, radius, e.opt)
}

func (e workloadEngine) NNBatch(qs []Object, k int) ([][]Match, error) {
	return e.Set.NNBatch(qs, k, e.opt)
}

// LevelExplain is one level of a query explain: the L-MCM prediction
// next to the measured cost.
type LevelExplain struct {
	Level     int
	PredNodes float64
	PredDists float64
	ActNodes  int
	ActDists  int
}

// ExplainRange runs range(q, radius) without the parent-distance
// optimization (so the measurement is exactly what the model predicts)
// and returns the matches with a per-level prediction-vs-measurement
// breakdown; ErrSharded on a sharded index.
func (ix *Index) ExplainRange(q Object, radius float64) ([]Match, []LevelExplain, error) {
	if err := ix.check(q); err != nil {
		return nil, nil, err
	}
	sh, err := ix.single()
	if err != nil {
		return nil, nil, err
	}
	matches, profile, err := sh.Tree.RangeProfile(q, radius)
	if err != nil {
		return nil, nil, err
	}
	pred := sh.Model.RangeLByLevel(radius)
	out := make([]LevelExplain, len(profile))
	for i, p := range profile {
		out[i] = LevelExplain{Level: p.Level, ActNodes: p.Nodes, ActDists: p.Dists}
		if i < len(pred) {
			out[i].PredNodes = pred[i].Nodes
			out[i].PredDists = pred[i].Dists
		}
	}
	return matches, out, nil
}
