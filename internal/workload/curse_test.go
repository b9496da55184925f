package workload

import (
	"testing"

	"mcost/internal/dataset"
)

// TestCurseWorkloadValidatesAcrossSentinels checks the mix builder
// handles every crossover sentinel the advisor can emit: a real radius,
// "tree always wins" (-1), "tree loses everywhere" (0), and a bogus
// crossover past the bound.
func TestCurseWorkloadValidatesAcrossSentinels(t *testing.T) {
	for _, cross := range []float64{0.3, -1, 0, 2.5} {
		w := Curse(cross, 1.0, 5000)
		if err := w.Validate(); err != nil {
			t.Fatalf("Curse(%g): %v", cross, err)
		}
		if len(w.Classes) != 5 {
			t.Fatalf("Curse(%g): %d classes", cross, len(w.Classes))
		}
		for _, c := range w.Classes {
			if c.K == 0 && (c.Radius <= 0 || c.Radius > 1.0) {
				t.Fatalf("Curse(%g): class %s radius %g outside (0, bound]", cross, c.Name, c.Radius)
			}
		}
	}
	if k := Curse(0.3, 1, 3).Classes[4].K; k != 1 {
		t.Fatalf("tiny dataset deep-k = %d, want clamp to 1", k)
	}
}

// TestCurseApportioning pins largest-remainder apportionment over the
// curse mix's weights (4:2:1:2:1). 23 queries split as exact shares
// 9.2, 4.6, 2.3, 4.6, 2.3 — floors assign 21, and the two leftovers go
// to the largest remainders (the two .6 classes).
func TestCurseApportioning(t *testing.T) {
	w := Curse(0.3, 1.0, 5000)
	counts, err := w.Apportion(23)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{9, 5, 2, 5, 2}
	sum := 0
	for i, c := range counts {
		sum += c
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if sum != 23 {
		t.Fatalf("counts sum to %d, want 23", sum)
	}
	// Every class executes even when the total barely covers the mix.
	counts, err = w.Apportion(len(w.Classes))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c < 1 {
			t.Fatalf("class %d starved: counts = %v", i, counts)
		}
	}
}

// TestCurseRunsEndToEnd executes the curse mix against a real tree so
// the class radii and ks are known-valid engine inputs.
func TestCurseRunsEndToEnd(t *testing.T) {
	tr, model, d := fixture(t)
	pool := dataset.PaperClusteredQueries(100, 8, 1101).Queries
	w := Curse(0.4, d.Space.Bound, d.N())
	rep, err := Run(tr, model, w, pool, Options{Queries: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 5 {
		t.Fatalf("%d class reports", len(rep.Classes))
	}
	total := 0
	for _, cr := range rep.Classes {
		total += cr.Queries
		if cr.Queries < 1 {
			t.Fatalf("class %s never executed", cr.Class.Name)
		}
		if cr.Measured.Dists <= 0 {
			t.Fatalf("class %s measured no distance computations", cr.Class.Name)
		}
	}
	if total != 40 {
		t.Fatalf("executed %d queries, want exactly 40", total)
	}
}
