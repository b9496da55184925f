package mtree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
)

func scanAnd(d *dataset.Dataset, preds []Pred) map[uint64]bool {
	out := map[uint64]bool{}
	for i, o := range d.Objects {
		ok := true
		for _, p := range preds {
			if d.Space.Distance(p.Q, o) > p.Radius {
				ok = false
				break
			}
		}
		if ok {
			out[uint64(i)] = true
		}
	}
	return out
}

func scanOr(d *dataset.Dataset, preds []Pred) map[uint64]bool {
	out := map[uint64]bool{}
	for i, o := range d.Objects {
		for _, p := range preds {
			if d.Space.Distance(p.Q, o) <= p.Radius {
				out[uint64(i)] = true
				break
			}
		}
	}
	return out
}

func sameSet(t *testing.T, got []Match, want map[uint64]bool, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, scan found %d", label, len(got), len(want))
	}
	for _, m := range got {
		if !want[m.OID] {
			t.Fatalf("%s: unexpected OID %d", label, m.OID)
		}
	}
}

func complexFixture(t *testing.T) (*dataset.Dataset, *Tree, []Pred) {
	t.Helper()
	d := dataset.PaperClustered(1200, 6, 71)
	tr := buildTree(t, d, Options{PageSize: 1024, Seed: 1})
	qs := dataset.PaperClusteredQueries(2, 6, 71).Queries
	preds := []Pred{
		{Q: qs[0], Radius: 0.35},
		{Q: qs[1], Radius: 0.4},
	}
	return d, tr, preds
}

func TestRangeAndMatchesScan(t *testing.T) {
	d, tr, preds := complexFixture(t)
	for _, prune := range []bool{false, true} {
		got, err := tr.RangeAnd(preds, QueryOptions{UseParentDist: prune})
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, scanAnd(d, preds), "AND")
	}
}

func TestRangeOrMatchesScan(t *testing.T) {
	d, tr, preds := complexFixture(t)
	for _, prune := range []bool{false, true} {
		got, err := tr.RangeOr(preds, QueryOptions{UseParentDist: prune})
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, scanOr(d, preds), "OR")
	}
}

func TestComplexSinglePredicateEqualsRange(t *testing.T) {
	d, tr, preds := complexFixture(t)
	_ = d
	single := preds[:1]
	and, err := tr.RangeAnd(single, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	or, err := tr.RangeOr(single, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := tr.Range(single[0].Q, single[0].Radius, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(and, plain) || !sameOIDs(or, plain) {
		t.Fatal("single-predicate complex queries disagree with Range")
	}
}

func TestComplexValidation(t *testing.T) {
	_, tr, preds := complexFixture(t)
	if _, err := tr.RangeAnd(nil, QueryOptions{}); err == nil {
		t.Error("empty predicates accepted")
	}
	bad := []Pred{{Q: nil, Radius: 1}}
	if _, err := tr.RangeAnd(bad, QueryOptions{}); err == nil {
		t.Error("nil predicate query accepted")
	}
	bad2 := []Pred{{Q: preds[0].Q, Radius: -1}}
	if _, err := tr.RangeOr(bad2, QueryOptions{}); err == nil {
		t.Error("negative predicate radius accepted")
	}
}

func TestComplexEmptyTree(t *testing.T) {
	tr, _ := New(Options{Space: metric.VectorSpace("L2", 2)})
	preds := []Pred{{Q: metric.Vector{0, 0}, Radius: 1}}
	if got, err := tr.RangeAnd(preds, QueryOptions{}); err != nil || got != nil {
		t.Fatalf("AND on empty tree: %v %v", got, err)
	}
	if got, err := tr.RangeOr(preds, QueryOptions{}); err != nil || got != nil {
		t.Fatalf("OR on empty tree: %v %v", got, err)
	}
}

func TestConjunctionCheaperThanDisjunction(t *testing.T) {
	_, tr, preds := complexFixture(t)
	tr.ResetCounters()
	if _, err := tr.RangeAnd(preds, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	andReads := tr.NodeReads()
	tr.ResetCounters()
	if _, err := tr.RangeOr(preds, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	orReads := tr.NodeReads()
	if andReads > orReads {
		t.Fatalf("conjunction read %d nodes, disjunction %d — AND must prune at least as hard", andReads, orReads)
	}
}

func TestComplexDistancesFinite(t *testing.T) {
	d, tr, preds := complexFixture(t)
	_ = d
	got, err := tr.RangeOr(preds, QueryOptions{UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got {
		if math.IsNaN(m.Distance) || math.IsInf(m.Distance, 0) {
			t.Fatalf("OID %d has distance %v", m.OID, m.Distance)
		}
	}
}

// TestParentLemmaKeepsMatchesAtTheRadius: a member at exactly the query
// radius is a match, and the parent-distance lemma must not prune it on
// rounding. Under L∞, and under L2 on a grid of tenths (no coordinate is
// a binary fraction, so 0.9−0.3 > 0.6), the unguarded lemma lost such
// members in every traversal that uses it: range, its batch form, k-NN
// and both complex queries.
func TestParentLemmaKeepsMatchesAtTheRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	grid := make([]metric.Object, 400)
	for i := range grid {
		grid[i] = metric.Vector{float64(rng.Intn(11)) / 10, float64(rng.Intn(11)) / 10}
	}
	clustered := dataset.PaperClustered(500, 3, 31)
	for _, d := range []*dataset.Dataset{
		{Name: "L2-grid", Space: metric.VectorSpace("L2", 2), Objects: grid},
		{Name: "Linf", Space: metric.VectorSpace("Linf", 3), Objects: clustered.Objects},
	} {
		tr := buildTree(t, d, Options{PageSize: 512, Seed: 1})
		opt := QueryOptions{UseParentDist: true}
		for qi := 0; qi < 40; qi++ {
			q := d.Objects[qi*7]
			all := LinearScanNN(d.Objects, d.Space, q, len(d.Objects))
			for _, rank := range []int{1, 4, 19, 60} {
				r := all[rank].Distance
				label := fmt.Sprintf("%s q%d r=%v", d.Name, qi, r)
				want := scanOr(d, []Pred{{Q: q, Radius: r}})
				got, err := tr.Range(q, r, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, got, want, label+" range")
				batch, err := tr.RangeBatch([]metric.Object{q, d.Objects[qi]}, r, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, batch[0], want, label+" batch")
				for _, conj := range []bool{true, false} {
					preds := []Pred{{Q: q, Radius: r}, {Q: d.Objects[qi], Radius: d.Space.Bound}}
					got, err := tr.complexQuery(preds, conj, opt)
					if err != nil {
						t.Fatal(err)
					}
					if conj {
						sameSet(t, got, want, label+" and")
					} else {
						sameSet(t, got, scanOr(d, preds), label+" or")
					}
				}
				nn, err := tr.NN(q, rank+1, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameOIDs(nn, all[:rank+1]) {
					t.Fatalf("%s: NN(%d) differs from the scan's", label, rank+1)
				}
			}
		}
	}
}
