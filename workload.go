package mcost

import "mcost/internal/workload"

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
// and scores the cost model's predictions per class and overall —
// the capacity-planning loop the paper motivates.
func (ix *Index) RunWorkload(w *Workload, pool []Object, opt WorkloadOptions) (*WorkloadReport, error) {
	if err := ix.check(pool...); err != nil {
		return nil, err
	}
	return workload.Run(ix.tree, ix.model, w, pool, opt)
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
// breakdown.
func (ix *Index) ExplainRange(q Object, radius float64) ([]Match, []LevelExplain, error) {
	if err := ix.check(q); err != nil {
		return nil, nil, err
	}
	matches, profile, err := ix.tree.RangeProfile(q, radius)
	if err != nil {
		return nil, nil, err
	}
	pred := ix.model.RangeLByLevel(radius)
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
