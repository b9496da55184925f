package mcost

// One benchmark per table and figure of the paper's evaluation. Each
// bench runs the corresponding experiment end to end (dataset
// generation, tree construction, F̂ estimation, model fitting, measured
// workload, prediction) at a reduced default scale so the whole harness
// finishes in minutes; `go run ./cmd/mcost-exp -n 10000 -queries 1000`
// reproduces the paper-scale numbers and EXPERIMENTS.md records them.
//
// Alongside wall-clock time, key model-vs-measurement figures are
// attached via b.ReportMetric so regressions in *accuracy* show up in
// benchmark diffs, not only speed.

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/experiments"
)

func benchCfg() experiments.Config {
	return experiments.Config{N: 2000, Queries: 30, PageSize: 2048, Seed: 42}
}

func meanAbs(errs []float64) float64 {
	var s float64
	for _, e := range errs {
		s += math.Abs(e)
	}
	return s / float64(len(errs))
}

// BenchmarkTable1Datasets regenerates Table 1: dataset construction and
// distance-distribution summaries for every family.
func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 11 {
			b.Fatalf("got %d rows", len(r.Rows))
		}
	}
}

// BenchmarkHVIndex regenerates the Section 2.1 homogeneity measurements
// (HV > 0.98 claim) plus the Example 1 closed form.
func BenchmarkHVIndex(b *testing.B) {
	var minHV float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunHV(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		minHV = 1
		for _, row := range r.Rows {
			if row.HV < minHV {
				minHV = row.HV
			}
		}
	}
	b.ReportMetric(minHV, "minHV")
}

// BenchmarkFig1RangeCosts regenerates Figure 1: range-query cost
// validation across dimensionality (panels a, b, c).
func BenchmarkFig1RangeCosts(b *testing.B) {
	var nmcmErr, lmcmErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var ne, le []float64
		for _, row := range r.Rows {
			ne = append(ne, (row.NMCMDists-row.ActualDists)/row.ActualDists)
			le = append(le, (row.LMCMDists-row.ActualDists)/row.ActualDists)
		}
		nmcmErr, lmcmErr = meanAbs(ne), meanAbs(le)
	}
	b.ReportMetric(nmcmErr*100, "nmcm-err-%")
	b.ReportMetric(lmcmErr*100, "lmcm-err-%")
}

// BenchmarkFig2NNCosts regenerates Figure 2: NN(Q,1) cost validation and
// the three NN estimators (panels a, b, c).
func BenchmarkFig2NNCosts(b *testing.B) {
	var nnDistErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var errs []float64
		for _, row := range r.Rows {
			errs = append(errs, (row.EstNNDist-row.ActualNNDist)/row.ActualNNDist)
		}
		nnDistErr = meanAbs(errs)
	}
	b.ReportMetric(nnDistErr*100, "Enn-err-%")
}

// BenchmarkFig3TextRange regenerates Figure 3: edit-distance range
// queries over the five text vocabularies (panels a, b).
func BenchmarkFig3TextRange(b *testing.B) {
	var nmcmErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var errs []float64
		for _, row := range r.Rows {
			errs = append(errs, (row.NMCMDists-row.ActualDists)/row.ActualDists)
		}
		nmcmErr = meanAbs(errs)
	}
	b.ReportMetric(nmcmErr*100, "nmcm-err-%")
}

// BenchmarkFig4RadiusSweep regenerates Figure 4: costs versus query
// volume on clustered D=20 (panels a, b).
func BenchmarkFig4RadiusSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != len(experiments.Fig4Volumes) {
			b.Fatal("row count")
		}
	}
}

// BenchmarkFig5Tuning regenerates Figure 5: the node-size sweep and the
// combined-cost optimum (panels a, b).
func BenchmarkFig5Tuning(b *testing.B) {
	cfg := benchCfg()
	cfg.N = 4000
	var bestKB float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bestKB = r.BestKB
	}
	b.ReportMetric(bestKB, "bestKB")
}

// BenchmarkVPTreeModel regenerates the Section 5 vp-tree cost-model
// validation.
func BenchmarkVPTreeModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunVP(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationPruning measures the parent-distance optimization's
// savings against the model's unoptimized prediction.
func BenchmarkAblationPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPruning(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBins sweeps histogram resolution.
func BenchmarkAblationBins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBins(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSampling sweeps the F̂ pair-sample size.
func BenchmarkAblationSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationSampling(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBuild compares bulk loading with incremental
// insertion under both promotion policies.
func BenchmarkAblationBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBuild(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllSmoke exercises the full experiment registry once per
// iteration at a tiny scale — the end-to-end path of cmd/mcost-exp.
func BenchmarkRunAllSmoke(b *testing.B) {
	cfg := experiments.Config{N: 800, Queries: 10, PageSize: 2048, Seed: 7}
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNKSweep regenerates the general-k NN validation (the paper
// derives arbitrary k, evaluates k=1; this covers k up to 50).
func BenchmarkNNKSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunNNK(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkComplexQueries regenerates the §6 complex-query extension
// validation (conjunctions/disjunctions of range predicates).
func BenchmarkComplexQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunComplex(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiViewModel regenerates the §6 multi-viewpoint extension
// validation on a non-homogeneous space.
func BenchmarkMultiViewModel(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMultiView(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		improvement = r.GlobalErr / math.Max(r.MultiErr, 1e-9)
	}
	b.ReportMetric(improvement, "err-ratio")
}

// BenchmarkFractalDimension regenerates the fractal-dimension extension.
func BenchmarkFractalDimension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFractal(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityJoin regenerates the self-join extension
// validation (pruned traversal + node-pair cost model vs nested loop).
func BenchmarkSimilarityJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunJoin(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBias measures how Assumption 1 (the biased query
// model) earns its keep: prediction error under matched vs mismatched
// query distributions.
func BenchmarkAblationBias(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblationBias(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		gap = 0
		for _, row := range r.Rows {
			gap += (row.MismatchErr - row.BiasedErr) * 100
		}
		gap /= float64(len(r.Rows))
	}
	b.ReportMetric(gap, "mismatch-gap-pp")
}

// BenchmarkHMCM regenerates the statistics-size vs accuracy comparison
// (N-MCM / H-MCM / L-MCM), answering the paper's closing question about
// models with less tree statistics.
func BenchmarkHMCM(b *testing.B) {
	var h8RangeErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunHMCM(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		h8RangeErr = r.Rows[3].RangeErr * 100
	}
	b.ReportMetric(h8RangeErr, "h8-range-err-%")
}

// BenchmarkComputeProfile times the hardness profile alone — what
// Build, RefreshModel and every recalibration refit pay after the model
// is fitted, the in-repo twin of the ledger's advisor.profile_ms — on the
// benchmark's tree-l2 and scan-l2 dataset shapes and on a clustered
// dataset six times tree-l2's size.
func BenchmarkComputeProfile(b *testing.B) {
	for _, c := range []struct {
		name string
		objs func() []Object
		dim  int
	}{
		{"clustered-d16-n2000", func() []Object { return dataset.PaperClustered(2000, 16, 1).Objects }, 16},
		{"clustered-d16-n12000", func() []Object { return dataset.PaperClustered(12000, 16, 1).Objects }, 16},
		{"uniform-d64-n10000", func() []Object { return dataset.Uniform(10000, 64, 1).Objects }, 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			ix, err := Build(VectorSpace("L2", c.dim), c.objs(), Options{Seed: 1, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.refreshProfile(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ix.profile.CrossoverK), "crossover-k")
		})
	}
}

// BenchmarkNNLPrefix times one pass pricing NN(Q,k) for k = 1..K on the
// tree-l2 dataset shape, beside the K-th of those prices on its own:
// the pass adds K binomial terms per grid point from a table of
// ln C(n,i) (n once K passes n/2, both tails), NNL(K) adds 2·min(K,
// n−K+1) and takes three Lgamma for each.
func BenchmarkNNLPrefix(b *testing.B) {
	ix, err := Build(VectorSpace("L2", 16), dataset.PaperClustered(2000, 16, 1).Objects, Options{Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, K := range []int{16, 512, 1500, 2000} {
		b.Run(fmt.Sprintf("prefix-K%d", K), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := ix.set.Shards()[0].Model.NNLPrefix(K); len(got) != K {
					b.Fatalf("%d prices", len(got))
				}
			}
		})
		b.Run(fmt.Sprintf("single-k%d", K), func(b *testing.B) {
			var sink CostEstimate
			for i := 0; i < b.N; i++ {
				sink = ix.set.Shards()[0].Model.NNL(K)
			}
			_ = sink
		})
	}
}

// BenchmarkStatsFree regenerates the zero-statistics model validation
// (the paper's first open question).
func BenchmarkStatsFree(b *testing.B) {
	var worstErr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunStatsFree(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		worstErr = 0
		for _, row := range r.Rows {
			if e := math.Abs(row.SFDists-row.ActDists) / row.ActDists * 100; e > worstErr {
				worstErr = e
			}
		}
	}
	b.ReportMetric(worstErr, "worst-err-%")
}

// BenchmarkHVErrorCorrelation regenerates the HV-as-indicator sweep:
// homogeneity falling, global-model error rising.
func BenchmarkHVErrorCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunHVErr(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNApprox measures the approximate-NN trade: recall and cost
// savings at 95% confidence relative to exact k-NN.
func BenchmarkNNApprox(b *testing.B) {
	space := VectorSpace("Linf", 8)
	objs := make([]Object, 4000)
	rng := newBenchRand(33)
	for i := range objs {
		v := make(Vector, 8)
		for j := range v {
			v[j] = rng.Float64()
		}
		objs[i] = v
	}
	ix, err := Build(space, objs, Options{Seed: 33})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]Object, 30)
	for i := range queries {
		v := make(Vector, 8)
		for j := range v {
			v[j] = rng.Float64()
		}
		queries[i] = v
	}
	var saving float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.ResetCosts()
		for _, q := range queries {
			if _, err := ix.NN(q, 10); err != nil {
				b.Fatal(err)
			}
		}
		_, exact := ix.Costs()
		ix.ResetCosts()
		for _, q := range queries {
			if _, err := ix.NNApprox(q, 10, 0.95); err != nil {
				b.Fatal(err)
			}
		}
		_, approx := ix.Costs()
		saving = 100 * (1 - float64(approx)/float64(exact))
	}
	b.ReportMetric(saving, "dist-saving-%")
}

func newBenchRand(seed int64) *benchRand {
	return &benchRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

// benchRand is a tiny splitmix64, avoiding a math/rand import solely for
// benchmark fixtures.
type benchRand struct{ state uint64 }

func (r *benchRand) Float64() float64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// BenchmarkParallelEstimate measures the worker-pool speedup on the two
// statistics that dominate every experiment: F̂ estimation over the
// default 200k sampled pairs and the HV index with default options
// (30 viewpoints × 2000-distance RDDs plus the pairwise discrepancy
// matrix). Sub-benchmarks pin the worker count, so the trajectory shows
// the 1-worker baseline next to the NumCPU fan-out; the outputs are
// bit-identical across worker counts (asserted by the distdist tests),
// so any delta here is pure speed.
func BenchmarkParallelEstimate(b *testing.B) {
	d := dataset.PaperClustered(20_000, 20, 42)
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("estimate-workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, err := distdist.Estimate(d, distdist.Options{Seed: 42, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if h.N() != 200_000 {
					b.Fatalf("sampled %d pairs", h.N())
				}
			}
		})
		b.Run(fmt.Sprintf("hv-workers=%d", workers), func(b *testing.B) {
			var hv float64
			for i := 0; i < b.N; i++ {
				res, err := distdist.HV(d, distdist.HVOptions{Seed: 42, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				hv = res.HV
			}
			b.ReportMetric(hv, "HV")
		})
	}
}

// BenchmarkShardedThroughput measures query throughput through the
// sharded facade: the per-query fan-out against the batched paths, for
// range and k-NN. ns/op is per full 64-query workload; reads/query
// shows what the batch amortizes and the shard pruner skips.
func BenchmarkShardedThroughput(b *testing.B) {
	objs := randomVectors(4000, 8, 91)
	space := VectorSpace("Linf", 8)
	sx, err := BuildSharded(space, objs, Options{Seed: 91}, ShardOptions{Shards: 4, Assign: ShardPivot})
	if err != nil {
		b.Fatal(err)
	}
	queries := randomVectors(64, 8, 92)
	const radius = 0.25
	const k = 10
	run := func(b *testing.B, f func() error) {
		b.Helper()
		sx.ResetCosts()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
		reads, _ := sx.Costs()
		b.ReportMetric(float64(reads)/float64(b.N*len(queries)), "reads/query")
	}
	b.Run("range-loop", func(b *testing.B) {
		run(b, func() error {
			for _, q := range queries {
				if _, err := sx.Range(q, radius); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("range-batch", func(b *testing.B) {
		run(b, func() error {
			_, err := sx.RangeBatch(queries, radius)
			return err
		})
	})
	b.Run("nn-loop", func(b *testing.B) {
		run(b, func() error {
			for _, q := range queries {
				if _, err := sx.NN(q, k); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("nn-batch", func(b *testing.B) {
		run(b, func() error {
			_, err := sx.NNBatch(queries, k)
			return err
		})
	})
}

// BenchmarkBufferPool regenerates the logical-vs-physical I/O sweep: the
// model predicts logical node accesses; an LRU buffer pool absorbs
// re-references.
func BenchmarkBufferPool(b *testing.B) {
	var hitRate float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunCache(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		hitRate = r.Rows[len(r.Rows)-1].HitRate * 100
	}
	b.ReportMetric(hitRate, "max-hit-%")
}
