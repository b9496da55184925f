package mcost

import (
	"context"
	"math"
	"testing"

	"mcost/internal/recal"
)

// The facade side of the k-clamping convention: admission pricing and
// prediction must stay finite for any k, on both the plain and the
// recalibrated path, because PriceNN feeds budgets and router timeouts
// directly.

func TestPricingClampsK(t *testing.T) {
	space := VectorSpace("L2", 4)
	objs := randomVectors(120, 4, 9)
	ix, err := Build(space, objs, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		n := len(objs)
		for _, k := range []int{-4, 0, 1, n, n + 50, 1 << 28} {
			for name, e := range map[string]CostEstimate{
				"PriceNN":        ix.PriceNN(k),
				"PredictNN":      ix.PredictNN(k),
				"PredictNNLevel": ix.PredictNNLevel(k),
			} {
				if math.IsNaN(e.Nodes) || math.IsInf(e.Nodes, 0) || math.IsNaN(e.Dists) || math.IsInf(e.Dists, 0) || e.Nodes < 0 || e.Dists < 0 {
					t.Fatalf("%s: %s(%d) = %+v, want finite and non-negative", stage, name, k, e)
				}
			}
			if d := ix.Models()[0].ExpectedNNDist(k); math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				t.Fatalf("%s: ExpectedNNDist(%d) = %v, want finite and non-negative", stage, k, d)
			}
		}
		if low, one := ix.PriceNN(0), ix.PriceNN(1); low != one {
			t.Fatalf("%s: PriceNN(0) = %+v, want the k=1 price %+v", stage, low, one)
		}
		if hi, full := ix.PriceNN(1<<28), ix.PriceNN(n); hi != full {
			t.Fatalf("%s: PriceNN(huge) = %+v, want the k=n price %+v", stage, hi, full)
		}
	}
	check("plain")
	if err := ix.EnableRecalibration(recal.Config{}, objs); err != nil {
		t.Fatal(err)
	}
	// Feed the bias window through the traced path so the corrected
	// estimates are exercised with real observations.
	for i := 0; i < 8; i++ {
		if _, err := ix.NNBatchTraced(context.Background(), objs[i:i+1], 5, QueryBudget{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	check("recalibrated")
}
