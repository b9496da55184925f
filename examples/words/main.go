// Words: approximate string matching under the edit distance — the
// paper's motivating example ("given a set of keywords ... which is the
// expected cost to retrieve the 20 nearest neighbors of Q?"). Builds an
// M-tree over a synthetic 12k-word vocabulary, answers exactly that
// question with the cost model, then runs the query and compares.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"mcost"
)

// Syllable tables give the vocabulary an Italian-ish shape; any word
// list works — the index and model only see edit distances.
var (
	onsets  = []string{"b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "gh", "st", "tr", "sc"}
	vowels  = []string{"a", "e", "i", "o", "u", "ia", "io"}
	endings = []string{"a", "e", "i", "o", "one", "ezza", "mente", "are", "ato"}
)

func main() {
	const vocabSize = 12_000
	rng := rand.New(rand.NewSource(3))
	vocab := makeVocabulary(rng, vocabSize)
	space := mcost.EditSpace(25) // max word length 25 => d+ = 25

	idx, err := mcost.Build(space, vocab, mcost.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d keywords under the edit distance (%d nodes, height %d)\n\n",
		idx.Size(), idx.NumNodes(), idx.Height())

	// The paper's question: expected cost of the 20 nearest neighbors?
	const k = 20
	pred := idx.PredictNN(k)
	fmt.Printf("the paper's opening question — cost to retrieve the %d nearest neighbors:\n", k)
	fmt.Printf("  predicted: %.1f page reads, %.1f edit-distance computations\n",
		pred.Nodes, pred.Dists)
	fmt.Printf("  expected distance of the %dth match: %.2f edits\n\n",
		k, idx.Models()[0].ExpectedNNDist(k))

	query := "tempesta"
	idx.ResetCosts()
	nn, err := idx.NN(query, k)
	if err != nil {
		log.Fatal(err)
	}
	nodes, dists := idx.Costs()
	fmt.Printf("measured for Q=%q: %d page reads, %d distance computations\n", query, nodes, dists)
	fmt.Printf("nearest neighbors: ")
	for i, m := range nn[:10] {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s(%g)", m.Object, m.Distance)
	}
	fmt.Println(", ...")

	// Range flavor: everything within 2 edits, averaged over a batch of
	// word-shaped queries (the model predicts expectations over the
	// query distribution, not any single query).
	pred2 := idx.PredictRange(2)
	probes := makeVocabulary(rand.New(rand.NewSource(99)), 50)
	idx.ResetCosts()
	var totalResults int
	for _, p := range probes {
		ms, err := idx.Range(p, 2)
		if err != nil {
			log.Fatal(err)
		}
		totalResults += len(ms)
	}
	nodes, dists = idx.Costs()
	np := float64(len(probes))
	fmt.Printf("\nrange(Q, 2) over %d probe words: predicted %.1f reads / %.1f dists / ~%.1f results;",
		len(probes), pred2.Nodes, pred2.Dists, idx.PredictSelectivity(2))
	fmt.Printf("\n             measured averages:    %.1f reads / %.1f dists / %.1f results\n",
		float64(nodes)/np, float64(dists)/np, float64(totalResults)/np)
}

func makeVocabulary(rng *rand.Rand, n int) []mcost.Object {
	seen := make(map[string]bool, n)
	out := make([]mcost.Object, 0, n)
	for len(out) < n {
		var sb strings.Builder
		for s, syl := 0, 1+rng.Intn(3); s < syl; s++ {
			sb.WriteString(onsets[rng.Intn(len(onsets))])
			sb.WriteString(vowels[rng.Intn(len(vowels))])
		}
		sb.WriteString(endings[rng.Intn(len(endings))])
		w := sb.String()
		if len(w) > 25 {
			w = w[:25]
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}
