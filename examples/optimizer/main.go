// Optimizer: the deployment the paper argues for — "apply optimizers'
// technology to metric query processing". The cost model is plain data
// (a distance histogram plus tree statistics), so it serializes to JSON
// and lives in a catalog; a query optimizer loads it and chooses an
// access path (index scan vs. sequential scan) without touching the
// index or the data.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"mcost"
)

func main() {
	// ---- Indexing side: build once, export the model. ----
	const (
		dim = 12
		n   = 30_000
	)
	space := mcost.VectorSpace("Linf", dim)
	rng := rand.New(rand.NewSource(31))
	objects := make([]mcost.Object, n)
	for i := range objects {
		v := make(mcost.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		objects[i] = v
	}
	idx, err := mcost.Build(space, objects, mcost.Options{Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	var catalog bytes.Buffer
	if err := idx.Models()[0].Save(&catalog); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog entry: %d bytes of JSON for a %d-object index (%d nodes)\n\n",
		catalog.Len(), idx.Size(), idx.NumNodes())

	// ---- Optimizer side: no index, no data — just the catalog. ----
	model, err := mcost.LoadModel(bytes.NewReader(catalog.Bytes()))
	if err != nil {
		log.Fatal(err)
	}

	// Sequential scan costs: n distances, and n/(leaf capacity) page
	// reads if the objects were packed into the same 4 KB pages.
	scanDists := float64(model.N())
	scanPages := scanDists / 37 // ~37 12-d vectors per 4 KB page
	disk := mcost.PaperDiskParams()
	scanMS := disk.DistMS*scanDists + disk.IOCostMS(4096)*scanPages

	fmt.Printf("%-12s %14s %14s %14s %10s\n", "radius", "index dists", "index reads", "index ms", "choose")
	for _, radius := range []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.6} {
		est := model.RangeN(radius)
		indexMS := disk.DistMS*est.Dists + disk.IOCostMS(4096)*est.Nodes
		choice := "index"
		if indexMS >= scanMS {
			choice = "seq-scan"
		}
		fmt.Printf("%-12.2f %14.0f %14.0f %14.0f %10s\n",
			radius, est.Dists, est.Nodes, indexMS, choice)
	}
	fmt.Printf("\nsequential scan: %.0f distances, %.0f page reads, %.0f ms\n",
		scanDists, scanPages, scanMS)
	fmt.Println("\nthe crossover is exactly what the model exists to find: selective")
	fmt.Println("queries use the M-tree, broad ones fall back to the scan.")
}
