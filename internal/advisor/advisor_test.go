package advisor

import (
	"errors"
	"math"
	"testing"

	"mcost/internal/core"
	"mcost/internal/histogram"
	"mcost/internal/numeric"
)

// fakePred prices tree queries with pluggable closures, so decision
// logic is tested independently of the real L-MCM.
type fakePred struct {
	rangeFn func(r float64) core.CostEstimate
	nnFn    func(k int) core.CostEstimate
}

func (f fakePred) PriceRange(r float64) core.CostEstimate { return f.rangeFn(r) }
func (f fakePred) PriceNN(k int) core.CostEstimate        { return f.nnFn(k) }
func (f fakePred) PriceNNPrefix(K int) []core.CostEstimate {
	return nnPrefix(f, K)
}

// nnPrefix is the definition of Predictor.PriceNNPrefix: PriceNN(k) for
// k = 1..K.
func nnPrefix(p interface{ PriceNN(int) core.CostEstimate }, K int) []core.CostEstimate {
	out := make([]core.CostEstimate, K)
	for i := range out {
		out[i] = p.PriceNN(i + 1)
	}
	return out
}

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

// linearCrossoverK is crossoverK's specification: the smallest k whose
// price reaches the scan's, 0 when the tree wins at k = N.
func linearCrossoverK(pred Predictor, prof Profile) int {
	scan := prof.ScanNodes + prof.ScanDists
	if prof.N < 1 || !(cost(pred.PriceNN(prof.N)) >= scan) {
		return 0
	}
	for k := 1; k < prof.N; k++ {
		if cost(pred.PriceNN(k)) >= scan {
			return k
		}
	}
	return prof.N
}

// bisectCrossoverK is crossoverK as it was before the prefix walk,
// kept as a second oracle: on a predictor monotone in k it finds the
// same k, at a cost of log2(N) prices however small the answer.
func bisectCrossoverK(pred Predictor, prof Profile) int {
	scan := prof.ScanNodes + prof.ScanDists
	if prof.N < 1 {
		return 0
	}
	if !(cost(pred.PriceNN(prof.N)) >= scan) {
		return 0
	}
	lo, hi := 1, prof.N
	for lo < hi {
		mid := lo + (hi-lo)/2
		if cost(pred.PriceNN(mid)) >= scan {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// countingPred counts what crossoverK asks of its predictor.
type countingPred struct {
	fakePred
	prefixes *[]int // K of each PriceNNPrefix call
	single   *int   // PriceNN calls
}

func (c countingPred) PriceNN(k int) core.CostEstimate {
	*c.single++
	return c.fakePred.PriceNN(k)
}

func (c countingPred) PriceNNPrefix(K int) []core.CostEstimate {
	*c.prefixes = append(*c.prefixes, K)
	return nnPrefix(c.fakePred, K)
}

// stepAt prices k-NN at the scan's cost from k = at up, and just under
// it below; at > n never crosses.
func stepAt(at int, scan float64) fakePred {
	return fakePred{nnFn: func(k int) core.CostEstimate {
		if k >= at {
			return core.CostEstimate{Dists: scan}
		}
		return core.CostEstimate{Dists: math.Nextafter(scan, 0)}
	}}
}

func TestCrossoverKIsTheFirstKAtScanCost(t *testing.T) {
	const n = 1000
	prof := Profile{N: n, ScanNodes: 10, ScanDists: n}
	scan := prof.ScanNodes + prof.ScanDists
	// A plateau that sits on the scan's cost and dips one ulp under it at
	// scattered k, the way a concentrated dataset's prices do: not
	// monotone, so only the linear reference defines the answer.
	wobble := func(first int) fakePred {
		return fakePred{nnFn: func(k int) core.CostEstimate {
			if k < first || (k > first && k%7 == 3) {
				return core.CostEstimate{Dists: math.Nextafter(scan, 0)}
			}
			return core.CostEstimate{Dists: scan}
		}}
	}
	cases := []struct {
		name     string
		pred     fakePred
		want     int
		monotone bool
	}{
		{"crosses at 1", stepAt(1, scan), 1, true},
		{"crosses at 2", stepAt(2, scan), 2, true},
		{"crosses at 489", stepAt(489, scan), 489, true},
		{"crosses at a power of two", stepAt(512, scan), 512, true},
		{"crosses just past one", stepAt(513, scan), 513, true},
		{"crosses at the lower-tail limit", stepAt(n/2, scan), n / 2, true},
		{"crosses just past it", stepAt(n/2+1, scan), n/2 + 1, true},
		{"crosses at N", stepAt(n, scan), n, true},
		{"never crosses", stepAt(n+1, scan), 0, true},
		{"linear in k", linearPred(1, 10), 92, true},
		{"plateau wobbling from 1", wobble(1), 1, false},
		{"plateau wobbling from 40", wobble(40), 40, false},
		{"plateau wobbling from 700", wobble(700), 700, false},
	}
	lowerK := numeric.LowerTailMaxK(n)
	for _, c := range cases {
		var prefixes []int
		var single int
		pred := countingPred{c.pred, &prefixes, &single}
		got := crossoverK(pred, prof)
		if ref := linearCrossoverK(c.pred, prof); got != ref || got != c.want {
			t.Errorf("%s: crossoverK = %d, linear reference %d, want %d", c.name, got, ref, c.want)
		}
		if old := bisectCrossoverK(c.pred, prof); c.monotone && got != old {
			t.Errorf("%s: crossoverK = %d, bisection %d", c.name, got, old)
		}
		// One pricing path: the only single price is the k = N check.
		if single != 1 {
			t.Errorf("%s: %d single prices, want 1", c.name, single)
		}
		// The work bound that replaces a timing: prefixes double, so
		// reaching k asks for under 4k prices in all (5k past the
		// lower-tail limit, where the doubling stops once). And only a
		// crossover past that limit asks for a prefix past it, which
		// pays for the upper binomial tail.
		total := 0
		for _, K := range prefixes {
			total += K
			if K > lowerK && got > 0 && got <= lowerK {
				t.Errorf("%s: asked for a prefix of %d past the lower-tail limit %d", c.name, K, lowerK)
			}
		}
		if total > 5*got+16 || (got <= lowerK && total > 4*got+16) {
			t.Errorf("%s: asked for prefixes %v totalling %d prices", c.name, prefixes, total)
		}
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
