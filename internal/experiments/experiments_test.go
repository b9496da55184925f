package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
)

// quickCfg keeps experiment tests fast while exercising the full paths.
func quickCfg() Config {
	return Config{N: 1500, Queries: 40, PageSize: 2048, Seed: 7}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-header", "c"},
		Rows:    [][]string{{"1", "2", "3"}, {"wide-cell", "x", "y"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "demo") {
		t.Fatalf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[1], "long-header") {
		t.Fatalf("missing header: %q", lines[1])
	}
	// Columns align: "x" in the last row starts at the same offset as
	// "long-header".
	if strings.Index(lines[1], "long-header") != strings.Index(lines[4], "x") {
		t.Fatal("columns not aligned")
	}
}

func TestRunTable1(t *testing.T) {
	r, err := RunTable1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6+5 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MeanDist <= 0 {
			t.Errorf("%s: mean distance %g", row.Name, row.MeanDist)
		}
	}
	var buf bytes.Buffer
	if err := r.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestRunHV(t *testing.T) {
	cfg := quickCfg()
	r, err := RunHV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.HV < 0.85 || row.HV > 1 {
			t.Errorf("%s: HV = %g outside plausible band", row.Name, row.HV)
		}
	}
	// The hypercube row carries the analytic value and the Monte-Carlo
	// estimate should be close to it.
	last := r.Rows[len(r.Rows)-1]
	if last.Analytic == 0 {
		t.Fatal("hypercube row missing analytic HV")
	}
	if math.Abs(last.HV-last.Analytic) > 0.02 {
		t.Errorf("hypercube HV %g vs analytic %g", last.HV, last.Analytic)
	}
}

func TestRunFig1ShapeAndAccuracy(t *testing.T) {
	r, err := RunFig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig1Dims) {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ActualDists <= 0 || row.ActualNodes <= 0 {
			t.Fatalf("D=%g: empty measurements", row.Dim)
		}
		// The paper: N-MCM within ~4%, L-MCM within ~10% at n=10^4 and
		// 1000 queries. At this reduced scale allow a wider band but
		// catch gross errors.
		if e := math.Abs(row.NMCMDists-row.ActualDists) / row.ActualDists; e > 0.35 {
			t.Errorf("D=%g: N-MCM dists err %.0f%%", row.Dim, e*100)
		}
		if e := math.Abs(row.LMCMNodes-row.ActualNodes) / row.ActualNodes; e > 0.5 {
			t.Errorf("D=%g: L-MCM nodes err %.0f%%", row.Dim, e*100)
		}
		if e := math.Abs(row.EstObjs-row.ActualObjs) / math.Max(row.ActualObjs, 1); e > 0.35 {
			t.Errorf("D=%g: selectivity err %.0f%%", row.Dim, e*100)
		}
	}
	for _, tbl := range r.Tables() {
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunFig2Shape(t *testing.T) {
	r, err := RunFig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig1Dims) {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ActualNNDist <= 0 {
			t.Fatalf("D=%g: no NN distance measured", row.Dim)
		}
		if e := math.Abs(row.EstNNDist-row.ActualNNDist) / row.ActualNNDist; e > 0.5 {
			t.Errorf("D=%g: E[nn] err %.0f%% (est %.3f act %.3f)", row.Dim, e*100, row.EstNNDist, row.ActualNNDist)
		}
		// Estimators should be positive and ordered sanely.
		if row.LMCMNodes <= 0 || row.ENNNodes <= 0 || row.R1Nodes <= 0 {
			t.Errorf("D=%g: non-positive estimates", row.Dim)
		}
	}
}

func TestRunFig3Shape(t *testing.T) {
	r, err := RunFig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if e := math.Abs(row.NMCMDists-row.ActualDists) / row.ActualDists; e > 0.4 {
			t.Errorf("%s: N-MCM dists err %.0f%%", row.Code, e*100)
		}
	}
}

func TestRunFig4MonotoneInVolume(t *testing.T) {
	r, err := RunFig4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig4Volumes) {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ActualDists < r.Rows[i-1].ActualDists {
			t.Fatal("actual CPU cost not monotone in query volume")
		}
		if r.Rows[i].NMCMDists < r.Rows[i-1].NMCMDists {
			t.Fatal("predicted CPU cost not monotone in query volume")
		}
	}
}

func TestRunFig5Shape(t *testing.T) {
	cfg := quickCfg()
	cfg.N = 4000 // node-size sweep needs enough data for big pages
	r, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig5NodeSizes) {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	// Paper shape: I/O decreases with node size; CPU has an interior
	// minimum (first falls then rises, or at least rises at the top end
	// relative to its minimum).
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.PredNodes >= first.PredNodes {
		t.Fatalf("predicted I/O not decreasing: %.1f -> %.1f", first.PredNodes, last.PredNodes)
	}
	minDists := math.Inf(1)
	for _, row := range r.Rows {
		minDists = math.Min(minDists, row.PredDists)
	}
	if last.PredDists <= minDists || first.PredDists <= minDists {
		t.Fatalf("predicted CPU lacks an interior minimum: first %.0f min %.0f last %.0f",
			first.PredDists, minDists, last.PredDists)
	}
	if r.BestKB <= r.Rows[0].NodeSizeKB || r.BestKB >= r.Rows[len(r.Rows)-1].NodeSizeKB {
		t.Fatalf("optimum %g KB at the sweep boundary", r.BestKB)
	}
}

func TestRunVP(t *testing.T) {
	r, err := RunVP(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PredVisits <= 0 || row.ActVisits <= 0 {
			t.Fatalf("m=%d r=%g: empty row", row.M, row.Radius)
		}
	}
}

func TestRunAblations(t *testing.T) {
	cfg := quickCfg()
	for name, run := range map[string]func(Config) (*AblationResult, error){
		"pruning":  RunAblationPruning,
		"bins":     RunAblationBins,
		"sampling": RunAblationSampling,
		"build":    RunAblationBuild,
	} {
		r, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.T.Rows) == 0 {
			t.Fatalf("%s: empty table", name)
		}
		var buf bytes.Buffer
		if err := r.T.Render(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestRegistryAndNames pins the one registry: every experiment once, in
// name order, with a JSON form for exactly the six that have a golden
// file or a CI artifact.
func TestRegistryAndNames(t *testing.T) {
	var names, jsonNames []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
		if e.JSON {
			jsonNames = append(jsonNames, e.Name)
		}
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
	}
	wantNames := []string{"ablation-bias", "ablation-bins", "ablation-build", "ablation-pruning",
		"ablation-sampling", "cache", "complex", "concentration", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fractal", "hmcm", "hv", "hverr", "join", "multiview", "nnk", "recal", "residuals", "statsfree",
		"table1", "vptree"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("experiments %q, want %q", names, wantNames)
	}
	wantJSON := []string{"concentration", "fig1", "fig3", "recal", "residuals", "table1"}
	if !reflect.DeepEqual(jsonNames, wantJSON) {
		t.Fatalf("JSON experiments %q, want %q", jsonNames, wantJSON)
	}
	if _, ok := Lookup("all"); ok {
		t.Fatal(`"all" must not name an experiment`)
	}

	// A text-only or unknown name fails before running anything, and the
	// error names the experiments that do have a JSON form.
	for _, name := range []string{"fig2", "nosuch"} {
		err := WriteJSON(name, quickCfg(), io.Discard)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(wantJSON)) {
			t.Fatalf("WriteJSON(%q) = %v, want an error listing %v", name, err, wantJSON)
		}
	}
}

func TestRunNNK(t *testing.T) {
	r, err := RunNNK(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 5 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	// nn_k distance must grow with k, in both measurement and model.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ActualKDist < r.Rows[i-1].ActualKDist {
			t.Fatal("measured nn_k not monotone in k")
		}
		if r.Rows[i].EstKDist < r.Rows[i-1].EstKDist {
			t.Fatal("estimated nn_k not monotone in k")
		}
	}
	for _, row := range r.Rows {
		if e := math.Abs(row.EstKDist-row.ActualKDist) / row.ActualKDist; e > 0.5 {
			t.Errorf("k=%d: E[nn_k] err %.0f%%", row.K, e*100)
		}
	}
}

func TestRunComplex(t *testing.T) {
	r, err := RunComplex(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// AND accesses fewer nodes than OR, in both model and measurement.
		if row.AndActNodes > row.OrActNodes {
			t.Errorf("r=(%g,%g): measured AND nodes %.1f above OR %.1f",
				row.R1, row.R2, row.AndActNodes, row.OrActNodes)
		}
		if row.AndPredNodes > row.OrPredNodes {
			t.Errorf("r=(%g,%g): predicted AND nodes above OR", row.R1, row.R2)
		}
	}
}

func TestRunMultiView(t *testing.T) {
	r, err := RunMultiView(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.HV > 0.95 {
		t.Fatalf("two-islands HV = %g, fixture not non-homogeneous", r.HV)
	}
	if r.MultiErr >= r.GlobalErr {
		t.Fatalf("multi-view error %.1f not below global %.1f", r.MultiErr, r.GlobalErr)
	}
}

func TestRunFractal(t *testing.T) {
	r, err := RunFractal(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, row := range r.Rows {
		byName[row.Name] = row.D2
	}
	// Known-dimension references recovered.
	ring := byName[fmt.Sprintf("ring-n%d", quickCfg().N)]
	sier := byName[fmt.Sprintf("sierpinski-n%d", quickCfg().N)]
	if math.Abs(ring-1) > 0.35 {
		t.Errorf("ring D2 = %.2f, want ≈ 1", ring)
	}
	if math.Abs(sier-1.585) > 0.35 {
		t.Errorf("Sierpinski D2 = %.2f, want ≈ 1.585", sier)
	}
	// Uniform D2 grows with embedding dimension; clustered falls below
	// uniform at the same dimension.
	u2 := byName[fmt.Sprintf("uniform-D2-n%d", quickCfg().N)]
	u10 := byName[fmt.Sprintf("uniform-D10-n%d", quickCfg().N)]
	c10 := byName[fmt.Sprintf("clustered-D10-n%d", quickCfg().N)]
	if !(u2 < u10) {
		t.Errorf("uniform D2 not increasing: %g vs %g", u2, u10)
	}
	if !(c10 < u10) {
		t.Errorf("clustered D2 %g not below uniform %g", c10, u10)
	}
}

func TestRunJoin(t *testing.T) {
	r, err := RunJoin(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ActDists >= row.NestedLoop {
			t.Errorf("eps=%g: join computed %.0f dists, baseline %.0f — no pruning",
				row.Eps, row.ActDists, row.NestedLoop)
		}
	}
}

func TestRunAblationBias(t *testing.T) {
	r, err := RunAblationBias(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The mismatch error should dominate the biased error — that is
		// the point of Assumption 1.
		if row.MismatchErr <= row.BiasedErr {
			t.Errorf("D=%d: mismatch err %.0f%% not above biased %.0f%%",
				row.Dim, row.MismatchErr*100, row.BiasedErr*100)
		}
	}
}

func TestRunHMCM(t *testing.T) {
	r, err := RunHMCM(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	// Space ordering: N-MCM > every H-MCM > L-MCM.
	n := r.Rows[0]
	l := r.Rows[len(r.Rows)-1]
	for _, row := range r.Rows[1 : len(r.Rows)-1] {
		if row.Floats >= n.Floats || row.Floats < l.Floats {
			t.Errorf("%s stores %d floats, outside (%d, %d]", row.Model, row.Floats, l.Floats, n.Floats)
		}
	}
	// H-MCM/16 at least as accurate as L-MCM on range queries (noise slack).
	h16 := r.Rows[4]
	if h16.RangeErr > l.RangeErr+0.05 {
		t.Errorf("H-MCM/16 range err %.1f%% above L-MCM %.1f%%", h16.RangeErr*100, l.RangeErr*100)
	}
}

func TestRunStatsFree(t *testing.T) {
	r, err := RunStatsFree(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PredHeight != row.ActHeight {
			t.Errorf("%s: height pred %d act %d", row.Name, row.PredHeight, row.ActHeight)
		}
		if row.SFDists < row.ActDists/3 || row.SFDists > row.ActDists*3 {
			t.Errorf("%s: S-MCM %.1f vs actual %.1f", row.Name, row.SFDists, row.ActDists)
		}
	}
}

func TestRunHVErr(t *testing.T) {
	r, err := RunHVErr(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	// Separation drives HV down and the global model's error up.
	if last.HV >= first.HV {
		t.Errorf("HV did not fall with separation: %.3f -> %.3f", first.HV, last.HV)
	}
	if last.MeanAbsErr <= first.MeanAbsErr {
		t.Errorf("error did not grow with separation: %.4f -> %.4f",
			first.MeanAbsErr, last.MeanAbsErr)
	}
}

func TestRunCache(t *testing.T) {
	r, err := RunCache(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("got %d rows", len(r.Rows))
	}
	if r.LogicalAct <= 0 || r.LogicalModel <= 0 {
		t.Fatalf("empty logical baselines: %+v", r)
	}
	// Bigger caches mean more hits and fewer physical reads; every cache
	// stays at or below the logical access count.
	for i, row := range r.Rows {
		if row.PhysicalReads > r.LogicalAct+1e-9 {
			t.Errorf("cache %d: physical %.1f above logical %.1f",
				row.CachePages, row.PhysicalReads, r.LogicalAct)
		}
		if i > 0 {
			if row.HitRate < r.Rows[i-1].HitRate-1e-9 {
				t.Errorf("hit rate fell from %.2f to %.2f as cache grew",
					r.Rows[i-1].HitRate, row.HitRate)
			}
			if row.PhysicalReads > r.Rows[i-1].PhysicalReads+1e-9 {
				t.Errorf("physical reads rose with a bigger cache")
			}
		}
	}
}

// TestMeasureWorkerCountInvariance asserts the parallel query batches in
// measureRange/measureNN report exactly the same averages at any worker
// count: tree traversal is read-only, counters are atomic, and per-query
// reductions happen in query order.
func TestMeasureWorkerCountInvariance(t *testing.T) {
	cfg := quickCfg()
	d := datasetFor(cfg)
	queries := queriesFor(cfg)
	type triple struct{ a, b, c float64 }
	var baseRange, baseNN triple
	for i, workers := range []int{1, 2, 8} {
		c := cfg
		c.Workers = workers
		b, err := buildFor(d, c)
		if err != nil {
			t.Fatal(err)
		}
		rn, rd, ro, err := b.measureRange(queries, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		nn, nd, nk, err := b.measureNN(queries, 3)
		if err != nil {
			t.Fatal(err)
		}
		gotRange, gotNN := triple{rn, rd, ro}, triple{nn, nd, nk}
		if i == 0 {
			baseRange, baseNN = gotRange, gotNN
			continue
		}
		if gotRange != baseRange {
			t.Fatalf("workers=%d: range measurements %+v != %+v", workers, gotRange, baseRange)
		}
		if gotNN != baseNN {
			t.Fatalf("workers=%d: NN measurements %+v != %+v", workers, gotNN, baseNN)
		}
	}
}

func datasetFor(cfg Config) *dataset.Dataset {
	return dataset.PaperClustered(cfg.N, 10, cfg.Seed)
}

func queriesFor(cfg Config) []metric.Object {
	return dataset.PaperClusteredQueries(cfg.Queries, 10, cfg.Seed).Queries
}
