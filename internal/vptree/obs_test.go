package vptree

import (
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/obs"
)

// TestTraceMatchesCounters: a traced vp-tree query's distance total must
// equal the tree counter's delta, its visit total must equal the
// VisitStats sum, and levels must not exceed the tree height.
func TestTraceMatchesCounters(t *testing.T) {
	d := dataset.Uniform(600, 4, 31)
	tree, err := Build(d.Objects, Options{Space: d.Space, M: 3, BucketSize: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.UniformQueries(1, 4, 32).Queries[0]

	for name, run := range map[string]func(vs *VisitStats, tr *obs.Trace) error{
		"range": func(vs *VisitStats, tr *obs.Trace) error {
			_, err := tree.Range(q, 0.3, vs, tr)
			return err
		},
		"nn": func(vs *VisitStats, tr *obs.Trace) error {
			_, err := tree.NN(q, 5, vs, tr)
			return err
		},
	} {
		var vs VisitStats
		tr := obs.NewTrace()
		tree.ResetCounters()
		if err := run(&vs, tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := tr.TotalDists(), tree.DistanceCount(); got != want {
			t.Fatalf("%s: trace dists %d != counter %d", name, got, want)
		}
		if got, want := tr.TotalNodes(), int64(vs.InternalVisits+vs.LeafVisits); got != want {
			t.Fatalf("%s: trace nodes %d != stats visits %d", name, got, want)
		}
		if len(tr.Levels) > tree.Height() {
			t.Fatalf("%s: %d trace levels exceed height %d", name, len(tr.Levels), tree.Height())
		}
	}

	// Untraced calls must be unaffected and nil traces free.
	tree.ResetCounters()
	if _, err := tree.Range(q, 0.3, nil, nil); err != nil {
		t.Fatal(err)
	}
	if tree.DistanceCount() == 0 {
		t.Fatal("untraced query computed no distances")
	}
}
