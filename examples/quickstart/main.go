// Quickstart: index 20,000 points of a 10-dimensional clustered dataset,
// run range and k-NN queries, and — the point of the library — predict
// their costs before running them, from nothing but the distance
// distribution and per-node statistics.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mcost"
)

func main() {
	// 1. A bounded metric space: the unit hypercube under L∞.
	const dim = 10
	space := mcost.VectorSpace("Linf", dim)

	// 2. Some data: 20k points in 10 Gaussian clusters (the paper's
	// "clustered" dataset family).
	rng := rand.New(rand.NewSource(7))
	centers := make([]mcost.Vector, 10)
	for i := range centers {
		centers[i] = randomPoint(rng, dim)
	}
	objects := make([]mcost.Object, 20_000)
	for i := range objects {
		c := centers[rng.Intn(len(centers))]
		v := make(mcost.Vector, dim)
		for j := range v {
			v[j] = clamp01(c[j] + rng.NormFloat64()*0.1)
		}
		objects[i] = v
	}

	// 3. Build: bulk-loads an M-tree (4 KB nodes), estimates the
	// distance distribution, fits the cost model.
	idx, err := mcost.Build(space, objects, mcost.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d objects: %d nodes, height %d\n\n",
		idx.Size(), idx.NumNodes(), idx.Height())

	// 4. Predict, then measure, range queries. The model assumes the
	// biased query model — queries follow the data distribution — so
	// draw queries near cluster centers, and average over a batch as
	// the paper does.
	const (
		radius   = 0.15
		nQueries = 100
	)
	queries := make([]mcost.Vector, nQueries)
	for i := range queries {
		queries[i] = nearCenter(rng, centers)
	}
	pred := idx.PredictRange(radius)
	fmt.Printf("range(Q, %.2f) predicted: %7.1f node reads, %9.1f distances, ~%.0f results\n",
		radius, pred.Nodes, pred.Dists, idx.PredictSelectivity(radius))

	idx.ResetCosts()
	var totalMatches int
	for _, q := range queries {
		matches, err := idx.Range(q, radius)
		if err != nil {
			log.Fatal(err)
		}
		totalMatches += len(matches)
	}
	nodes, dists := idx.Costs()
	fmt.Printf("range(Q, %.2f) measured:  %7.1f node reads, %9.1f distances, %.0f results (avg of %d queries)\n\n",
		radius, float64(nodes)/nQueries, float64(dists)/nQueries,
		float64(totalMatches)/nQueries, nQueries)

	// 5. Same for 10-NN queries, including the expected 10th-neighbor
	// distance (Eq. 11 of the paper).
	const k = 10
	nnPred := idx.PredictNN(k)
	fmt.Printf("NN(Q, %d)      predicted: %7.1f node reads, %9.1f distances, E[nn_%d] = %.3f\n",
		k, nnPred.Nodes, nnPred.Dists, k, idx.Models()[0].ExpectedNNDist(k))

	idx.ResetCosts()
	var nnDistSum float64
	for _, q := range queries {
		nn, err := idx.NN(q, k)
		if err != nil {
			log.Fatal(err)
		}
		nnDistSum += nn[k-1].Distance
	}
	nodes, dists = idx.Costs()
	fmt.Printf("NN(Q, %d)      measured:  %7.1f node reads, %9.1f distances, nn_%d = %.3f\n",
		k, float64(nodes)/nQueries, float64(dists)/nQueries, k, nnDistSum/nQueries)
	fmt.Println("\n(measured distance computations fall below the prediction because real",
		"\n queries use the parent-distance optimization the model deliberately ignores)")
}

func nearCenter(rng *rand.Rand, centers []mcost.Vector) mcost.Vector {
	c := centers[rng.Intn(len(centers))]
	v := make(mcost.Vector, len(c))
	for j := range v {
		v[j] = clamp01(c[j] + rng.NormFloat64()*0.1)
	}
	return v
}

func randomPoint(rng *rand.Rand, dim int) mcost.Vector {
	v := make(mcost.Vector, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
