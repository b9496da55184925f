package experiments

import (
	"fmt"
	"math/rand"

	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

// MultiViewResult validates the §6 multi-viewpoint extension on a
// deliberately non-homogeneous space: selectivity prediction error of
// the global-F model versus the query-sensitive mixture of viewpoint
// RDDs.
type MultiViewResult struct {
	HV        float64
	GlobalErr float64 // mean absolute selectivity error, global F
	MultiErr  float64 // same, multi-viewpoint model
	T         *Table
}

func (r *MultiViewResult) Table() *Table { return r.T }

// RunMultiView builds a two-island dataset (25%/75% mass, far apart),
// fits both models, and compares per-query selectivity predictions.
func RunMultiView(cfg Config) (*MultiViewResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	objs := make([]metric.Object, cfg.N)
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	for i := range objs {
		cx := 0.1
		if i%4 == 0 {
			cx = 0.9
		}
		objs[i] = metric.Vector{
			clamp(cx + rng.NormFloat64()*0.02),
			clamp(0.5 + rng.NormFloat64()*0.02),
		}
	}
	d := &dataset.Dataset{Name: "two-islands", Space: metric.VectorSpace("Linf", 2), Objects: objs}

	hv, err := distdist.HV(d, distdist.HVOptions{Viewpoints: 16, RDDSample: 800, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	b, err := buildFor(d, cfg)
	if err != nil {
		return nil, err
	}
	pivots, err := distdist.SelectViewpoints(d, 8, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	rdds := make([]*histogram.Histogram, len(pivots))
	for i, p := range pivots {
		rdds[i], err = distdist.RDD(p, d, 100, 2000, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
	}
	mv, err := core.NewMultiViewModel(d.Space, pivots, rdds, b.stats)
	if err != nil {
		return nil, err
	}

	const radius = 0.2
	queries := []metric.Vector{
		{0.9, 0.5}, {0.88, 0.52}, {0.92, 0.48}, // small island
		{0.1, 0.5}, {0.12, 0.47}, {0.08, 0.53}, // large island
	}
	t := &Table{
		Title:   fmt.Sprintf("Extension: multi-viewpoint model on a non-homogeneous space (HV = %.3f)", hv.HV),
		Columns: []string{"query", "actual objs", "global n*F(r)", "multi-view", "global err", "mv err"},
	}
	res := &MultiViewResult{HV: hv.HV, T: t}
	for _, q := range queries {
		actual := float64(len(mtree.LinearScanRange(d.Objects, d.Space, q, radius)))
		g := b.model.RangeObjects(radius)
		m := mv.RangeObjects(q, radius)
		res.GlobalErr += abs(g - actual)
		res.MultiErr += abs(m - actual)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(%.2f,%.2f)", q[0], q[1]),
			f1(actual), f1(g), f1(m), pct(g, actual), pct(m, actual),
		})
	}
	res.GlobalErr /= float64(len(queries))
	res.MultiErr /= float64(len(queries))
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FractalRow is one dataset's correlation-dimension estimate.
type FractalRow struct {
	Name  string
	Embed int // embedding dimension (0 for text)
	D2    float64
}

// FractalResult regenerates the fractal-dimension extension the paper
// names as future work: D2 estimated purely from the distance
// distribution.
type FractalResult struct {
	Rows []FractalRow
}

// RunFractal estimates the correlation dimension of representative
// datasets. For uniform data D2 tracks the embedding dimension; for
// clustered data it falls below it — the intrinsic-dimensionality
// signal the R-tree literature exploits, here obtained with no
// coordinates at all.
func RunFractal(cfg Config) (*FractalResult, error) {
	cfg = cfg.withDefaults()
	res := &FractalResult{}
	add := func(d *dataset.Dataset, embed int, rMin, rMax float64) error {
		f, err := distdist.Estimate(d, distdist.Options{Bins: 400, Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return err
		}
		d2, err := distdist.CorrelationDimension(f, rMin, rMax)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, FractalRow{Name: d.Name, Embed: embed, D2: d2})
		return nil
	}
	for _, dim := range []int{2, 5, 10} {
		if err := add(dataset.Uniform(cfg.N, dim, cfg.Seed), dim, 0, 0); err != nil {
			return nil, err
		}
		if err := add(dataset.PaperClustered(cfg.N, dim, cfg.Seed), dim, 0, 0); err != nil {
			return nil, err
		}
	}
	// Known-dimension references: a noisy circle (intrinsic D2 = 1) and
	// the Sierpinski triangle (D2 = log3/log2 ≈ 1.585), fitted over the
	// self-similar scale range.
	if err := add(dataset.Ring(cfg.N, 0.005, cfg.Seed), 2, 0.01, 0.2); err != nil {
		return nil, err
	}
	if err := add(dataset.Sierpinski(cfg.N, cfg.Seed), 2, 0.01, 0.3); err != nil {
		return nil, err
	}
	if err := add(dataset.Words(minInt(cfg.N, 8000), cfg.Seed), 0, 0, 0); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the estimates.
func (r *FractalResult) Table() *Table {
	t := &Table{
		Title:   "Extension: correlation fractal dimension from the distance distribution",
		Columns: []string{"dataset", "embedding D", "estimated D2"},
	}
	for _, row := range r.Rows {
		embed := "-"
		if row.Embed > 0 {
			embed = fmt.Sprintf("%d", row.Embed)
		}
		t.Rows = append(t.Rows, []string{row.Name, embed, f2(row.D2)})
	}
	return t
}
