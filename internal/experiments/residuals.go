package experiments

import (
	"fmt"
	"math"

	"mcost/internal/dataset"
	"mcost/internal/obs"
)

// ResidualLevel is one tree level of the predicted-vs-observed
// comparison at L-MCM's natural granularity: the level-based model
// predicts expected node accesses and distance computations per level
// (Eq. 15-16), and the obs.Trace instrumentation measures exactly those
// quantities, so the residual pred-obs localizes model error by level.
type ResidualLevel struct {
	Level int `json:"level"`

	PredNodes    float64 `json:"pred_nodes"`
	ObsNodes     float64 `json:"obs_nodes"`
	NodeResidual float64 `json:"node_residual"` // pred - obs
	NodeRelErr   float64 `json:"node_rel_err"`  // (pred - obs) / obs; 0 when obs = 0

	PredDists    float64 `json:"pred_dists"`
	ObsDists     float64 `json:"obs_dists"`
	DistResidual float64 `json:"dist_residual"`
	DistRelErr   float64 `json:"dist_rel_err"`

	// AvgParentPruned and AvgRadiusPruned break the observed pruning
	// down by lemma (per query). The model-validation workload runs with
	// parent-distance pruning off, so AvgParentPruned is 0 here; it is
	// populated when tracing production-style queries.
	AvgParentPruned float64 `json:"avg_parent_pruned"`
	AvgRadiusPruned float64 `json:"avg_radius_pruned"`
}

// ResidualReport is the per-level predicted-vs-observed residual table
// for one range-query workload, emitted as JSON by
// `mcost-exp -exp residuals -metrics-out FILE`. All fields are
// deterministic for a fixed seed at any -workers count.
type ResidualReport struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	N          int     `json:"n"`
	Dim        int     `json:"dim"`
	Queries    int     `json:"queries"`
	Radius     float64 `json:"radius"`
	Model      string  `json:"model"`

	Levels []ResidualLevel `json:"levels"`

	TotalPredNodes float64 `json:"total_pred_nodes"`
	TotalObsNodes  float64 `json:"total_obs_nodes"`
	TotalPredDists float64 `json:"total_pred_dists"`
	TotalObsDists  float64 `json:"total_obs_dists"`

	// Trace is the merged raw query trace (integer totals over all
	// queries), included when Config.IncludeTrace is set.
	Trace *obs.Trace `json:"trace,omitempty"`
}

func residual(pred, obs float64) (res, rel float64) {
	res = pred - obs
	if obs != 0 {
		rel = res / obs
	}
	return
}

// RunResiduals regenerates the paper's Figure 1 setting at a single
// dimensionality (clustered D=10, radius ᴰ√0.01/2) and decomposes the
// L-MCM prediction error by tree level: per level, predicted versus
// observed node accesses and distance computations, with pruning
// attribution from the query traces. This is the experiment every
// future performance PR reads first — a hot-path change that shifts
// per-level residuals changed the tree or the search, not just a
// constant factor.
func RunResiduals(cfg Config) (*ResidualReport, error) {
	cfg = cfg.withDefaults()
	const dim = 10
	radius := fig1Radius(dim)
	d := dataset.PaperClustered(cfg.N, dim, cfg.Seed+int64(dim))
	b, err := buildFor(d, cfg)
	if err != nil {
		return nil, fmt.Errorf("residuals: %w", err)
	}
	queries := dataset.PaperClusteredQueries(cfg.Queries, dim, cfg.Seed+int64(dim)).Queries
	merged, err := b.measureRangeTraced(queries, radius)
	if err != nil {
		return nil, err
	}
	pred := b.model.RangeLByLevel(radius)
	nq := float64(len(queries))

	rep := &ResidualReport{
		Experiment: "residuals",
		Dataset:    d.Name,
		N:          d.N(),
		Dim:        dim,
		Queries:    len(queries),
		Radius:     radius,
		Model:      "L-MCM",
	}
	levels := len(pred)
	if len(merged.Levels) > levels {
		levels = len(merged.Levels)
	}
	for i := 0; i < levels; i++ {
		l := ResidualLevel{Level: i + 1}
		if i < len(pred) {
			l.PredNodes = pred[i].Nodes
			l.PredDists = pred[i].Dists
		}
		if i < len(merged.Levels) {
			m := merged.Levels[i]
			l.ObsNodes = float64(m.Nodes) / nq
			l.ObsDists = float64(m.Dists) / nq
			l.AvgParentPruned = float64(m.ParentPruned) / nq
			l.AvgRadiusPruned = float64(m.RadiusPruned) / nq
		}
		l.NodeResidual, l.NodeRelErr = residual(l.PredNodes, l.ObsNodes)
		l.DistResidual, l.DistRelErr = residual(l.PredDists, l.ObsDists)
		rep.Levels = append(rep.Levels, l)
		rep.TotalPredNodes += l.PredNodes
		rep.TotalObsNodes += l.ObsNodes
		rep.TotalPredDists += l.PredDists
		rep.TotalObsDists += l.ObsDists
	}
	if cfg.IncludeTrace {
		rep.Trace = merged
	}
	return rep, nil
}

// fig1Radius is the Figure 1 query radius at dimensionality dim: half
// the side of the L∞ ball covering 1% of the unit hypercube's volume.
func fig1Radius(dim int) float64 {
	return math.Pow(0.01, 1/float64(dim)) / 2
}

// Table renders the residual report as text, for plain `mcost-exp -exp
// residuals` runs.
func (r *ResidualReport) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Per-level L-MCM residuals: range(Q, %.4f) on %s (n=%d, D=%d, %d queries)",
			r.Radius, r.Dataset, r.N, r.Dim, r.Queries),
		Columns: []string{"level", "pred nodes", "obs nodes", "resid", "pred dists", "obs dists", "resid", "radius-pruned"},
	}
	for _, l := range r.Levels {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", l.Level),
			f2(l.PredNodes), f2(l.ObsNodes), f2(l.NodeResidual),
			f1(l.PredDists), f1(l.ObsDists), f1(l.DistResidual),
			f1(l.AvgRadiusPruned),
		})
	}
	t.Rows = append(t.Rows, []string{"total",
		f2(r.TotalPredNodes), f2(r.TotalObsNodes), f2(r.TotalPredNodes - r.TotalObsNodes),
		f1(r.TotalPredDists), f1(r.TotalObsDists), f1(r.TotalPredDists - r.TotalObsDists),
		"",
	})
	return t
}
