package workload

import (
	"math"
	"testing"

	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

func fixture(t *testing.T) (*mtree.Tree, *core.MTreeModel, *dataset.Dataset) {
	t.Helper()
	d := dataset.PaperClustered(3000, 8, 1101)
	tr, err := mtree.New(mtree.Options{Space: d.Space, PageSize: 2048, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(d.Objects); err != nil {
		t.Fatal(err)
	}
	st, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	f, err := distdist.Estimate(d, distdist.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewMTreeModel(f, st)
	if err != nil {
		t.Fatal(err)
	}
	return tr, model, d
}

func testMix() *Workload {
	return &Workload{Classes: []QueryClass{
		{Name: "lookup", Weight: 6, K: 1},
		{Name: "similar-10", Weight: 3, K: 10},
		{Name: "discovery", Weight: 1, Radius: 0.25},
	}}
}

func TestValidate(t *testing.T) {
	if err := (&Workload{}).Validate(); err == nil {
		t.Error("empty workload accepted")
	}
	bad := &Workload{Classes: []QueryClass{{Name: "x", Weight: 0, Radius: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero weight accepted")
	}
	bad2 := &Workload{Classes: []QueryClass{{Name: "x", Weight: 1, K: -1}}}
	if err := bad2.Validate(); err == nil {
		t.Error("negative k accepted")
	}
	bad3 := &Workload{Classes: []QueryClass{{Name: "x", Weight: 1, Radius: -2}}}
	if err := bad3.Validate(); err == nil {
		t.Error("negative radius accepted")
	}
	if err := testMix().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunPredictionsTrackMeasurement(t *testing.T) {
	tr, model, _ := fixture(t)
	pool := dataset.PaperClusteredQueries(300, 8, 1101).Queries
	rep, err := Run(tr, model, testMix(), pool, Options{Queries: 240, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 3 {
		t.Fatalf("got %d class reports", len(rep.Classes))
	}
	total := 0
	for _, cr := range rep.Classes {
		total += cr.Queries
		if cr.Measured.Nodes <= 0 || cr.Measured.Dists <= 0 {
			t.Fatalf("%s: empty measurement", cr.Class.Name)
		}
		if cr.Pred.Nodes <= 0 {
			t.Fatalf("%s: empty prediction", cr.Class.Name)
		}
	}
	if total < 230 || total > 250 {
		t.Fatalf("executed %d queries, want ~240", total)
	}
	// The weighted prediction tracks the measurement (no pruning, so
	// dists should agree well).
	if e := math.Abs(rep.PredPerQuery.Dists-rep.MeasuredPerQuery.Dists) / rep.MeasuredPerQuery.Dists; e > 0.35 {
		t.Fatalf("per-query dists: pred %.1f vs measured %.1f (%.0f%%)",
			rep.PredPerQuery.Dists, rep.MeasuredPerQuery.Dists, e*100)
	}
	if e := math.Abs(rep.PredPerQuery.Nodes-rep.MeasuredPerQuery.Nodes) / rep.MeasuredPerQuery.Nodes; e > 0.35 {
		t.Fatalf("per-query nodes: pred %.1f vs measured %.1f", rep.PredPerQuery.Nodes, rep.MeasuredPerQuery.Nodes)
	}
	if rep.PredMSPerQuery <= 0 || rep.MeasuredMSPerQuery <= 0 {
		t.Fatal("zero millisecond projections")
	}
}

func TestRunWithPruningMeasuresBelowPrediction(t *testing.T) {
	tr, model, _ := fixture(t)
	pool := dataset.PaperClusteredQueries(300, 8, 1101).Queries
	rep, err := Run(tr, model, testMix(), pool, Options{Queries: 120, Seed: 4, UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeasuredPerQuery.Dists >= rep.PredPerQuery.Dists {
		t.Fatalf("pruned measurement %.1f not below prediction %.1f",
			rep.MeasuredPerQuery.Dists, rep.PredPerQuery.Dists)
	}
}

func TestRunErrors(t *testing.T) {
	tr, model, _ := fixture(t)
	pool := dataset.PaperClusteredQueries(10, 8, 1101).Queries
	if _, err := Run(tr, model, &Workload{}, pool, Options{}); err == nil {
		t.Error("invalid workload accepted")
	}
	if _, err := Run(tr, model, testMix(), nil, Options{}); err == nil {
		t.Error("empty query pool accepted")
	}
}

// TestApportionSumsExactly pins the largest-remainder apportionment:
// per-class counts sum to exactly the requested total on adversarial
// weight mixes where the old round-half-up code over- or under-shot.
func TestApportionSumsExactly(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		total   int
	}{
		// Four equal weights at 10 queries: 10/4 = 2.5 each, so
		// round-half-up gave 3+3+3+3 = 12 — the motivating regression.
		{"equal-halves", []float64{1, 1, 1, 1}, 10},
		{"equal-halves-6", []float64{1, 1, 1, 1, 1, 1}, 9},
		// A dominant class plus tiny ones: the tiny classes round to 0
		// and the min-1 fixup must pull queries from the big class.
		{"dominant", []float64{1000, 1, 1, 1}, 10},
		{"tiny-tail", []float64{0.5, 0.001, 0.001}, 5},
		// Repeating thirds never hit .5 but drift by accumulation.
		{"thirds", []float64{1, 1, 1}, 100},
		{"sevenths", []float64{1, 2, 4}, 50},
		{"skewed", []float64{0.9, 0.09, 0.009, 0.001}, 200},
		{"exact-min", []float64{5, 3, 2}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts, err := apportion(tc.weights, tc.total)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for i, c := range counts {
				if c < 1 {
					t.Errorf("class %d got %d queries, want >= 1", i, c)
				}
				sum += c
			}
			if sum != tc.total {
				t.Fatalf("counts %v sum to %d, want exactly %d", counts, sum, tc.total)
			}
			// Sanity: no class overshoots its exact share by more than
			// 1 except through the min-1 fixup, which only removes.
			var wsum float64
			for _, w := range tc.weights {
				wsum += w
			}
			for i, c := range counts {
				exact := float64(tc.total) * tc.weights[i] / wsum
				if float64(c) > exact+1+1e-9 {
					t.Errorf("class %d got %d queries for exact share %.3f", i, c, exact)
				}
			}
		})
	}
}

func TestApportionErrors(t *testing.T) {
	if _, err := apportion([]float64{1, 1, 1}, 2); err == nil {
		t.Error("2 queries over 3 classes accepted")
	}
}

// TestRunQueryCountSumsExactly checks the apportionment end to end:
// the per-class query counts in the report sum to Options.Queries. The
// pre-fix rounding executed 12 queries for this 4-class/10-query mix.
func TestRunQueryCountSumsExactly(t *testing.T) {
	tr, model, _ := fixture(t)
	pool := dataset.PaperClusteredQueries(50, 8, 1101).Queries
	w := &Workload{Classes: []QueryClass{
		{Name: "a", Weight: 1, K: 1},
		{Name: "b", Weight: 1, K: 2},
		{Name: "c", Weight: 1, Radius: 0.1},
		{Name: "d", Weight: 1, Radius: 0.2},
	}}
	rep, err := Run(tr, model, w, pool, Options{Queries: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, cr := range rep.Classes {
		sum += cr.Queries
	}
	if sum != 10 {
		t.Fatalf("executed %d queries, want exactly 10", sum)
	}
}

// TestRunBatchedMatchesLoop runs the same workload per-query and in
// batches of 32: measured distance computations and result counts are
// identical (batching never changes a result) while node reads can
// only shrink.
func TestRunBatchedMatchesLoop(t *testing.T) {
	tr, model, _ := fixture(t)
	pool := dataset.PaperClusteredQueries(300, 8, 1101).Queries
	loop, err := Run(tr, model, testMix(), pool, Options{Queries: 96, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(tr, model, testMix(), pool, Options{Queries: 96, Seed: 6, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := range loop.Classes {
		l, b := loop.Classes[i], batched.Classes[i]
		if l.Queries != b.Queries {
			t.Fatalf("%s: %d vs %d queries", l.Class.Name, l.Queries, b.Queries)
		}
		if l.Measured.Dists != b.Measured.Dists {
			t.Errorf("%s: dists %.2f (loop) vs %.2f (batch 32)", l.Class.Name, l.Measured.Dists, b.Measured.Dists)
		}
		if l.Results != b.Results {
			t.Errorf("%s: results %.2f vs %.2f", l.Class.Name, l.Results, b.Results)
		}
		if b.Measured.Nodes > l.Measured.Nodes {
			t.Errorf("%s: batched nodes %.2f exceed loop nodes %.2f", l.Class.Name, b.Measured.Nodes, l.Measured.Nodes)
		}
	}
}

// treeEngine adapts a single M-tree to Engine.
type treeEngine struct {
	tr   *mtree.Tree
	qopt mtree.QueryOptions
}

func (e treeEngine) RangeBatch(qs []metric.Object, radius float64) ([][]mtree.Match, error) {
	return e.tr.RangeBatch(qs, radius, e.qopt)
}

func (e treeEngine) NNBatch(qs []metric.Object, k int) ([][]mtree.Match, error) {
	return e.tr.NNBatch(qs, k, e.qopt)
}

func (e treeEngine) Costs() (int64, int64) { return e.tr.NodeReads(), e.tr.DistanceCount() }
func (e treeEngine) ResetCosts()           { e.tr.ResetCounters() }
func (e treeEngine) PageSize() int         { return e.tr.PageSize() }

// modelPredictor adapts the N-MCM to Predictor.
type modelPredictor struct{ m *core.MTreeModel }

func (p modelPredictor) PredictRange(radius float64) core.CostEstimate { return p.m.RangeN(radius) }
func (p modelPredictor) PredictNN(k int) core.CostEstimate             { return p.m.NNN(k) }

// Run executes the workload against one tree, with opt.UseParentDist,
// and scores the tree's N-MCM predictions: RunEngine's test fixture.
func Run(tr *mtree.Tree, model *core.MTreeModel, w *Workload, queryPool []metric.Object, opt Options) (*Report, error) {
	eng := treeEngine{tr: tr, qopt: mtree.QueryOptions{UseParentDist: opt.UseParentDist}}
	return RunEngine(eng, modelPredictor{m: model}, w, queryPool, opt)
}
