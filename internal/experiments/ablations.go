package experiments

import (
	"fmt"
	"math"

	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/mtree"
)

// AblationResult holds one ablation's table.
type AblationResult struct {
	T *Table
}

func (r *AblationResult) Table() *Table { return r.T }

// RunAblationPruning quantifies the parent-distance optimization the
// cost model deliberately ignores (footnote 2): with it on, measured
// distance computations drop below the model's (correct-by-design)
// prediction for the unoptimized search.
func RunAblationPruning(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Ablation: parent-distance pruning vs the cost model (clustered, range query)",
		Columns: []string{"D", "radius", "model dists", "measured (no pruning)", "measured (pruning)", "saved"},
	}
	for _, dim := range []int{5, 20, 50} {
		d := dataset.PaperClustered(cfg.N, dim, cfg.Seed+int64(dim))
		b, err := buildFor(d, cfg)
		if err != nil {
			return nil, err
		}
		queries := dataset.PaperClusteredQueries(cfg.Queries, dim, cfg.Seed+int64(dim)).Queries
		rq := math.Pow(0.01, 1/float64(dim)) / 2
		_, plain, _, err := b.measureRange(queries, rq)
		if err != nil {
			return nil, err
		}
		b.tr.ResetCounters()
		for _, q := range queries {
			if _, err := b.tr.Range(q, rq, mtree.QueryOptions{UseParentDist: true}); err != nil {
				return nil, err
			}
		}
		pruned := float64(b.tr.DistanceCount()) / float64(len(queries))
		est := b.model.RangeN(rq)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", dim), f3(rq), f1(est.Dists), f1(plain), f1(pruned),
			fmt.Sprintf("%.0f%%", 100*(plain-pruned)/plain),
		})
	}
	return &AblationResult{T: t}, nil
}

// RunAblationBins measures prediction error as a function of histogram
// resolution, reproducing the paper's remark that the r(1)-based NN
// estimate suffers from histogram coarseness (Figure 2(c) discussion).
func RunAblationBins(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	const dim = 20
	d := dataset.PaperClustered(cfg.N, dim, cfg.Seed)
	b, err := buildFor(d, cfg)
	if err != nil {
		return nil, err
	}
	queries := dataset.PaperClusteredQueries(cfg.Queries, dim, cfg.Seed).Queries
	rq := math.Pow(0.01, 1/float64(dim)) / 2
	actNodes, actDists, _, err := b.measureRange(queries, rq)
	if err != nil {
		return nil, err
	}
	_, _, actNN, err := b.measureNN(queries, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: histogram bin count (clustered D=20)",
		Columns: []string{"bins", "range dists err", "range nodes err", "E[nn] err", "r(1) err"},
	}
	fFine, err := distdist.Estimate(d, distdist.Options{Bins: 400, Seed: cfg.Seed + 1, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	for _, bins := range []int{10, 25, 50, 100, 400} {
		f := fFine
		if bins != 400 {
			f, err = fFine.Rebinned(bins)
			if err != nil {
				return nil, err
			}
		}
		model, err := core.NewMTreeModel(f, b.stats)
		if err != nil {
			return nil, err
		}
		est := model.RangeN(rq)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", bins),
			pct(est.Dists, actDists),
			pct(est.Nodes, actNodes),
			pct(model.ExpectedNNDist(1), actNN),
			pct(model.RadiusForExpectedObjects(1), actNN),
		})
	}
	return &AblationResult{T: t}, nil
}

// RunAblationSampling measures prediction error as a function of the
// number of sampled pairs used to estimate F̂.
func RunAblationSampling(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	const dim = 20
	d := dataset.PaperClustered(cfg.N, dim, cfg.Seed)
	b, err := buildFor(d, cfg)
	if err != nil {
		return nil, err
	}
	queries := dataset.PaperClusteredQueries(cfg.Queries, dim, cfg.Seed).Queries
	rq := math.Pow(0.01, 1/float64(dim)) / 2
	actNodes, actDists, _, err := b.measureRange(queries, rq)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: F-hat pair-sample size (clustered D=20)",
		Columns: []string{"pairs", "range dists err", "range nodes err"},
	}
	for _, pairs := range []int{500, 2000, 10_000, 50_000, 200_000} {
		f, err := distdist.Estimate(d, distdist.Options{MaxPairs: pairs, Seed: cfg.Seed + int64(pairs), Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		model, err := core.NewMTreeModel(f, b.stats)
		if err != nil {
			return nil, err
		}
		est := model.RangeN(rq)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", pairs),
			pct(est.Dists, actDists),
			pct(est.Nodes, actNodes),
		})
	}
	return &AblationResult{T: t}, nil
}

// RunAblationBuild compares bulk loading against incremental insertion
// with both promotion policies: build cost, tree quality (average leaf
// radius), and query cost.
func RunAblationBuild(cfg Config) (*AblationResult, error) {
	cfg = cfg.withDefaults()
	const dim = 10
	d := dataset.PaperClustered(cfg.N, dim, cfg.Seed)
	queries := dataset.PaperClusteredQueries(cfg.Queries, dim, cfg.Seed).Queries
	rq := math.Pow(0.01, 1/float64(dim)) / 2
	t := &Table{
		Title:   "Ablation: construction method (clustered D=10)",
		Columns: []string{"method", "build dists", "nodes", "avg leaf radius", "query dists", "query nodes"},
	}
	type method struct {
		name string
		make func() (*mtree.Tree, error)
	}
	newTree := func(promote mtree.PromotePolicy) (*mtree.Tree, error) {
		return mtree.New(mtree.Options{Space: d.Space, PageSize: cfg.PageSize, Promote: promote, Seed: cfg.Seed})
	}
	methods := []method{
		{"bulk-load", func() (*mtree.Tree, error) {
			tr, err := newTree(mtree.PromoteMinMaxRadius)
			if err != nil {
				return nil, err
			}
			return tr, tr.BulkLoad(d.Objects)
		}},
		{"insert mM_RAD", func() (*mtree.Tree, error) {
			tr, err := newTree(mtree.PromoteMinMaxRadius)
			if err != nil {
				return nil, err
			}
			return tr, tr.InsertAll(d.Objects)
		}},
		{"insert random", func() (*mtree.Tree, error) {
			tr, err := newTree(mtree.PromoteRandom)
			if err != nil {
				return nil, err
			}
			return tr, tr.InsertAll(d.Objects)
		}},
	}
	for _, m := range methods {
		tr, err := m.make()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		buildDists := float64(tr.DistanceCount())
		st, err := tr.CollectStats()
		if err != nil {
			return nil, err
		}
		var leafR float64
		var leaves int
		for _, ns := range st.Nodes {
			if ns.Leaf {
				leafR += ns.Radius
				leaves++
			}
		}
		leafR /= float64(leaves)
		tr.ResetCounters()
		for _, q := range queries {
			if _, err := tr.Range(q, rq, mtree.QueryOptions{UseParentDist: true}); err != nil {
				return nil, err
			}
		}
		nq := float64(len(queries))
		t.Rows = append(t.Rows, []string{
			m.name,
			fmt.Sprintf("%.0f", buildDists),
			fmt.Sprintf("%d", tr.NumNodes()),
			f4(leafR),
			f1(float64(tr.DistanceCount()) / nq),
			f1(float64(tr.NodeReads()) / nq),
		})
	}
	return &AblationResult{T: t}, nil
}
