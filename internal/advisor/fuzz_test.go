package advisor

import (
	"errors"
	"math"
	"testing"

	"mcost/internal/core"
	"mcost/internal/histogram"
)

// fuzzPredictor replays whatever the fuzzer invented as the tree
// prediction — including NaN and ±Inf, the recalibration-gone-bad
// shapes Plan must absorb.
type fuzzPredictor struct{ nodes, dists float64 }

func (p fuzzPredictor) PriceRange(float64) core.CostEstimate {
	return core.CostEstimate{Nodes: p.nodes, Dists: p.dists}
}
func (p fuzzPredictor) PriceNN(int) core.CostEstimate {
	return core.CostEstimate{Nodes: p.nodes, Dists: p.dists}
}

func (p fuzzPredictor) PriceNNPrefix(K int) []core.CostEstimate { return nnPrefix(p, K) }

// FuzzPlan feeds Plan arbitrary F̂ shapes (via ComputeProfile over a
// fuzzed weighted histogram), arbitrary tree predictions (including
// NaN/±Inf), and arbitrary queries straight off the wire: the contract
// is a valid decision with finite admission pricing, or an error
// matching ErrBadQuery — never a panic, never a nameless engine. This
// is the planner's contract with the server, which feeds it raw client
// input after only basic JSON decoding.
func FuzzPlan(f *testing.F) {
	f.Add(int64(7), 1.0, 0.5, "range", 0.25, 10, 100.0, 200.0)
	f.Add(int64(1), 32.0, 0.0, "nn", -1.0, 0, math.NaN(), math.Inf(1))
	f.Add(int64(3), 1.0, 1e-12, "join", math.Inf(1), -5, 0.0, 0.0)
	f.Add(int64(9), 0.0, 0.0, "", 0.0, 1<<30, 1e300, 1e300)
	f.Fuzz(func(t *testing.T, seed int64, bound, mass float64, kind string, radius float64, k int, treeNodes, treeDists float64) {
		if math.IsNaN(bound) || math.IsInf(bound, 0) || bound < 0 || bound > 1e9 {
			t.Skip()
		}
		// An adversarial F̂: all mass piled into one seed-chosen bin, the
		// degenerate family that used to NaN the correlation dimension.
		weights := make([]float64, 8)
		weights[int(uint64(seed)%8)] = math.Abs(mass)
		prof := Profile{N: 64, ScanNodes: 8, ScanDists: 64}
		if fh, err := histogram.FromWeightedCounts(weights, bound, false); err == nil {
			prof = ComputeProfile(fh, 64, 8, bound, fuzzPredictor{nodes: treeNodes, dists: treeDists})
		}
		q := Query{Kind: Kind(kind), Radius: radius, K: k}
		d, err := Plan(fuzzPredictor{nodes: treeNodes, dists: treeDists}, prof, q)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("untyped planning error: %v", err)
			}
			return
		}
		if d.Engine != EngineTree && d.Engine != EngineScan && d.Engine != EngineFanout {
			t.Fatalf("planned unknown engine %q", d.Engine)
		}
		if d.Reason == "" {
			t.Fatal("planned with no reason")
		}
		chosen := d.Predicted()
		if cost := chosen.Nodes + chosen.Dists; math.IsNaN(cost) || math.IsInf(cost, 0) {
			if d.Engine != EngineTree {
				t.Fatalf("non-finite admission price %g on engine %q", cost, d.Engine)
			}
			// A non-finite TREE price can only be chosen if the scan was
			// somehow worse — impossible, since scan cost is always finite.
			t.Fatalf("planner chose the tree at non-finite price %g over finite scan %g",
				cost, d.PredictedScan.Nodes+d.PredictedScan.Dists)
		}
	})
}
