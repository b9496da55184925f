package mcost_test

import (
	"bytes"
	"fmt"
	"math/rand"

	"mcost"
)

// exampleObjects builds a small deterministic clustered dataset.
func exampleObjects(n, dim int) []mcost.Object {
	rng := rand.New(rand.NewSource(7))
	out := make([]mcost.Object, n)
	for i := range out {
		base := 0.2
		if i%2 == 0 {
			base = 0.7
		}
		v := make(mcost.Vector, dim)
		for j := range v {
			x := base + rng.NormFloat64()*0.05
			if x < 0 {
				x = 0
			} else if x > 1 {
				x = 1
			}
			v[j] = x
		}
		out[i] = v
	}
	return out
}

// Build an index, run a k-NN query, and read the cost counters.
func ExampleBuild() {
	space := mcost.VectorSpace("L2", 4)
	idx, err := mcost.Build(space, exampleObjects(500, 4), mcost.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	idx.ResetCosts()
	nn, err := idx.NN(mcost.Vector{0.7, 0.7, 0.7, 0.7}, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("results:", len(nn))
	fmt.Println("sorted:", nn[0].Distance <= nn[1].Distance && nn[1].Distance <= nn[2].Distance)
	// Output:
	// results: 3
	// sorted: true
}

// Predict a range query's cost before running it, then compare.
func ExampleIndex_PredictRange() {
	space := mcost.VectorSpace("Linf", 4)
	idx, err := mcost.Build(space, exampleObjects(800, 4), mcost.Options{Seed: 2})
	if err != nil {
		panic(err)
	}
	pred := idx.PredictRange(0.3)
	idx.ResetCosts()
	if _, err := idx.Range(mcost.Vector{0.2, 0.2, 0.2, 0.2}, 0.3); err != nil {
		panic(err)
	}
	reads, _ := idx.Costs()
	// The model predicts the expectation over random queries; any single
	// query lands in its vicinity.
	fmt.Println("prediction positive:", pred.Nodes > 0 && pred.Dists > 0)
	fmt.Println("within 3x:", float64(reads) < 3*pred.Nodes+1)
	// Output:
	// prediction positive: true
	// within 3x: true
}

// Export the fitted cost model as JSON and use it standalone.
func ExampleIndex_Models() {
	space := mcost.VectorSpace("Linf", 3)
	idx, err := mcost.Build(space, exampleObjects(400, 3), mcost.Options{Seed: 3})
	if err != nil {
		panic(err)
	}
	var catalog bytes.Buffer
	if err := idx.Models()[0].Save(&catalog); err != nil {
		panic(err)
	}
	model, err := mcost.LoadModel(&catalog)
	if err != nil {
		panic(err)
	}
	a, b := idx.PredictRange(0.2), model.RangeN(0.2)
	fmt.Println("identical predictions:", a == b)
	// Output:
	// identical predictions: true
}

// Estimate the homogeneity-of-viewpoints index before trusting the
// model.
func ExampleHV() {
	space := mcost.VectorSpace("Linf", 6)
	rng := rand.New(rand.NewSource(4))
	objs := make([]mcost.Object, 1000)
	for i := range objs {
		v := make(mcost.Vector, 6)
		for j := range v {
			v[j] = rng.Float64()
		}
		objs[i] = v
	}
	res, err := mcost.HV(space, objs, 5)
	if err != nil {
		panic(err)
	}
	fmt.Println("homogeneous:", res.HV > 0.9)
	// Output:
	// homogeneous: true
}
