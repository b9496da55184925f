package experiments

import (
	"fmt"

	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/vptree"
)

// VPRow is one (fan-out, radius) point validating the Section 5 vp-tree
// cost model: predicted versus measured internal-node visits (= vantage
// distance computations) and total distances for range queries.
type VPRow struct {
	M      int
	Radius float64

	ActVisits  float64
	PredVisits float64
	ActDists   float64
	PredDists  float64
}

// VPResult validates the vp-tree cost model the paper sketches but does
// not evaluate.
type VPResult struct {
	Rows []VPRow
}

// RunVP builds binary and m-way vp-trees over uniform data and compares
// measured range costs with the Section 5 model.
func RunVP(cfg Config) (*VPResult, error) {
	cfg = cfg.withDefaults()
	const dim = 8
	d := dataset.Uniform(cfg.N, dim, cfg.Seed)
	f, err := distdist.Estimate(d, distdist.Options{Seed: cfg.Seed + 1, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	queries := dataset.UniformQueries(cfg.Queries, dim, cfg.Seed+2).Queries
	res := &VPResult{}
	for _, m := range []int{2, 3, 5} {
		tr, err := vptree.Build(d.Objects, vptree.Options{
			Space: d.Space, M: m, BucketSize: 1, Seed: cfg.Seed, VantageSamples: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("vp m=%d: %w", m, err)
		}
		model, err := core.NewVPModel(f, d.N(), m, 1)
		if err != nil {
			return nil, err
		}
		for _, rq := range []float64{0.05, 0.1, 0.2} {
			var vs vptree.VisitStats
			tr.ResetCounters()
			for _, q := range queries {
				if _, err := tr.Range(q, rq, &vs, nil); err != nil {
					return nil, err
				}
			}
			nq := float64(len(queries))
			pred := model.RangeCost(rq)
			res.Rows = append(res.Rows, VPRow{
				M: m, Radius: rq,
				ActVisits:  float64(vs.InternalVisits) / nq,
				PredVisits: pred.InternalVisits,
				ActDists:   float64(tr.DistanceCount()) / nq,
				PredDists:  pred.Dists,
			})
		}
	}
	return res, nil
}

// Table renders the validation.
func (r *VPResult) Table() *Table {
	t := &Table{
		Title:   "Section 5: vp-tree cost model validation (uniform D=8, bucket=1, random vantages)",
		Columns: []string{"m", "radius", "act visits", "pred visits", "err", "act dists", "pred dists", "err"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.M), f2(row.Radius),
			f1(row.ActVisits), f1(row.PredVisits), pct(row.PredVisits, row.ActVisits),
			f1(row.ActDists), f1(row.PredDists), pct(row.PredDists, row.ActDists),
		})
	}
	return t
}
