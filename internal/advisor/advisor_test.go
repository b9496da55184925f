package advisor

import (
	"errors"
	"math"
	"testing"

	"mcost/internal/core"
	"mcost/internal/histogram"
)

// fakePred prices tree queries with pluggable closures, so decision
// logic is tested independently of the real L-MCM.
type fakePred struct {
	rangeFn func(r float64) core.CostEstimate
	nnFn    func(k int) core.CostEstimate
}

func (f fakePred) PriceRange(r float64) core.CostEstimate { return f.rangeFn(r) }
func (f fakePred) PriceNN(k int) core.CostEstimate        { return f.nnFn(k) }

// linearPred prices range queries linearly in radius and NN queries
// linearly in k — monotone, like the real model.
func linearPred(nodesPerUnit, distsPerUnit float64) fakePred {
	return fakePred{
		rangeFn: func(r float64) core.CostEstimate {
			return core.CostEstimate{Nodes: nodesPerUnit * r, Dists: distsPerUnit * r}
		},
		nnFn: func(k int) core.CostEstimate {
			return core.CostEstimate{Nodes: nodesPerUnit * float64(k), Dists: distsPerUnit * float64(k)}
		},
	}
}

func TestPlanPicksCheaperEngine(t *testing.T) {
	pred := linearPred(10, 100)                              // tree cost = 110*r
	prof := Profile{N: 1000, ScanNodes: 10, ScanDists: 1000} // scan cost = 1010

	small, err := Plan(pred, prof, Query{Kind: KindRange, Radius: 1})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if small.Engine != EngineTree {
		t.Fatalf("cheap query planned to %s: %s", small.Engine, small.Reason)
	}
	big, err := Plan(pred, prof, Query{Kind: KindRange, Radius: 100})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if big.Engine != EngineScan {
		t.Fatalf("expensive query planned to %s: %s", big.Engine, big.Reason)
	}
	if got := big.Predicted(); got != big.PredictedScan {
		t.Fatalf("Predicted() = %+v, want the scan estimate", got)
	}
	if big.PredictedScan.Nodes != 10 || big.PredictedScan.Dists != 1000 {
		t.Fatalf("scan estimate %+v does not mirror the profile", big.PredictedScan)
	}

	nn, err := Plan(pred, prof, Query{Kind: KindNN, K: 3})
	if err != nil {
		t.Fatalf("Plan nn: %v", err)
	}
	if nn.Engine != EngineTree {
		t.Fatalf("k=3 planned to %s", nn.Engine)
	}
	nnBig, err := Plan(pred, prof, Query{Kind: KindNN, K: 500})
	if err != nil {
		t.Fatalf("Plan nn: %v", err)
	}
	if nnBig.Engine != EngineScan {
		t.Fatalf("k=500 planned to %s", nnBig.Engine)
	}
}

func TestPlanTieGoesToTree(t *testing.T) {
	pred := fakePred{
		rangeFn: func(float64) core.CostEstimate { return core.CostEstimate{Nodes: 10, Dists: 1000} },
		nnFn:    func(int) core.CostEstimate { return core.CostEstimate{Nodes: 10, Dists: 1000} },
	}
	prof := Profile{N: 1000, ScanNodes: 10, ScanDists: 1000}
	d, err := Plan(pred, prof, Query{Kind: KindRange, Radius: 0.5})
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if d.Engine != EngineTree {
		t.Fatalf("tie planned to %s, want tree", d.Engine)
	}
}

func TestPlanNonFiniteTreePredictionRoutesToScan(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		pred := fakePred{
			rangeFn: func(float64) core.CostEstimate { return core.CostEstimate{Nodes: bad, Dists: 0} },
			nnFn:    func(int) core.CostEstimate { return core.CostEstimate{Nodes: bad, Dists: 0} },
		}
		prof := Profile{N: 100, ScanNodes: 5, ScanDists: 100}
		for _, q := range []Query{{Kind: KindRange, Radius: 1}, {Kind: KindNN, K: 5}} {
			d, err := Plan(pred, prof, q)
			if err != nil {
				t.Fatalf("Plan(%v): %v", q, err)
			}
			if d.Engine != EngineScan {
				t.Fatalf("non-finite prediction planned to %s", d.Engine)
			}
		}
	}
}

func TestPlanBadQueries(t *testing.T) {
	pred := linearPred(1, 1)
	prof := Profile{N: 10, ScanNodes: 1, ScanDists: 10}
	bad := []Query{
		{Kind: KindRange, Radius: -1},
		{Kind: KindRange, Radius: math.NaN()},
		{Kind: KindRange, Radius: math.Inf(1)},
		{Kind: KindNN, K: 0},
		{Kind: KindNN, K: -3},
		{Kind: "join", Radius: 1},
	}
	for _, q := range bad {
		if _, err := Plan(pred, prof, q); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("Plan(%+v): err = %v, want ErrBadQuery", q, err)
		}
	}
}

func TestComputeProfileConcentration(t *testing.T) {
	// A spread-out linear CDF: healthy concentration, valid D2.
	spread := make([]float64, 2000)
	for i := range spread {
		spread[i] = 0.9 * float64(i+1) / float64(len(spread))
	}
	f, err := histogram.FromSamples(spread, 100, 1, false)
	if err != nil {
		t.Fatalf("FromSamples: %v", err)
	}
	pred := linearPred(1, 10)
	prof := ComputeProfile(f, 1000, 20, 1, pred)
	if prof.N != 1000 || prof.ScanDists != 1000 || prof.ScanNodes != 20 {
		t.Fatalf("profile basics wrong: %+v", prof)
	}
	if !(prof.Concentration > 0.3) {
		t.Fatalf("spread distribution got concentration %g", prof.Concentration)
	}
	if !prof.D2Valid {
		t.Fatalf("healthy histogram lost its D2")
	}

	// A tightly concentrated distribution: σ/μ near 0, huge intrinsic
	// dimension, degenerate D2.
	tight := make([]float64, 2000)
	for i := range tight {
		tight[i] = 0.5
	}
	ft, err := histogram.FromSamples(tight, 100, 1, false)
	if err != nil {
		t.Fatalf("FromSamples: %v", err)
	}
	pt := ComputeProfile(ft, 1000, 20, 1, pred)
	if !(pt.Concentration < prof.Concentration) {
		t.Fatalf("concentration did not fall: %g vs %g", pt.Concentration, prof.Concentration)
	}
	if !(pt.Hardness() > prof.Hardness()) {
		t.Fatalf("hardness did not rise: %g vs %g", pt.Hardness(), prof.Hardness())
	}
	if pt.D2Valid {
		t.Fatalf("point-mass histogram claims a valid D2 = %g", pt.D2)
	}
}

func TestCrossoverRadius(t *testing.T) {
	f := flatHistogram(t)
	// Tree cost 1010*r, scan cost 110: crossover at r ≈ 110/1010.
	pred := linearPred(10, 1000)
	prof := ComputeProfile(f, 100, 10, 1, pred)
	want := 110.0 / 1010.0
	if math.Abs(prof.CrossoverRadius-want) > 1e-6 {
		t.Fatalf("crossover radius %g, want %g", prof.CrossoverRadius, want)
	}

	// Tree always cheaper: negative sentinel.
	cheap := linearPred(0.01, 1)
	pc := ComputeProfile(f, 100, 10, 1, cheap)
	if pc.CrossoverRadius >= 0 {
		t.Fatalf("always-cheap tree got crossover %g", pc.CrossoverRadius)
	}
	if pc.CrossoverK != 0 {
		t.Fatalf("always-cheap tree got crossover k %d", pc.CrossoverK)
	}

	// Tree never cheaper: crossover at 0, k at 1.
	dear := fakePred{
		rangeFn: func(float64) core.CostEstimate { return core.CostEstimate{Nodes: 1e6} },
		nnFn:    func(int) core.CostEstimate { return core.CostEstimate{Nodes: 1e6} },
	}
	pd := ComputeProfile(f, 100, 10, 1, dear)
	if pd.CrossoverRadius != 0 {
		t.Fatalf("always-dear tree got crossover %g", pd.CrossoverRadius)
	}
	if pd.CrossoverK != 1 {
		t.Fatalf("always-dear tree got crossover k %d", pd.CrossoverK)
	}
}

func TestCrossoverK(t *testing.T) {
	f := flatHistogram(t)
	// Tree NN cost 11*k, scan 110: crossover at k = 10.
	pred := linearPred(1, 10)
	prof := ComputeProfile(f, 100, 10, 1, pred)
	if prof.CrossoverK != 10 {
		t.Fatalf("crossover k = %d, want 10", prof.CrossoverK)
	}
}

func flatHistogram(t *testing.T) *histogram.Histogram {
	t.Helper()
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = 0.9 * float64(i+1) / float64(len(samples))
	}
	f, err := histogram.FromSamples(samples, 100, 1, false)
	if err != nil {
		t.Fatalf("FromSamples: %v", err)
	}
	return f
}

// Plan's fuzz contract lives in fuzz_test.go (FuzzPlan): arbitrary
// F̂/predictor/query → valid decision or typed error, never a panic.
