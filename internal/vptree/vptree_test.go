package vptree

import (
	"math"
	"sort"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
)

func buildVP(t *testing.T, d *dataset.Dataset, opt Options) *Tree {
	t.Helper()
	opt.Space = d.Space
	tr, err := Build(d.Objects, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func scanRange(d *dataset.Dataset, q metric.Object, radius float64) []Match {
	var out []Match
	for i, o := range d.Objects {
		if dd := d.Space.Distance(q, o); dd <= radius {
			out = append(out, Match{Object: o, OID: uint64(i), Distance: dd})
		}
	}
	return out
}

func scanNN(d *dataset.Dataset, q metric.Object, k int) []Match {
	all := make([]Match, d.N())
	for i, o := range d.Objects {
		all[i] = Match{Object: o, OID: uint64(i), Distance: d.Space.Distance(q, o)}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].Distance < all[b].Distance })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func oidSet(ms []Match) map[uint64]bool {
	out := make(map[uint64]bool, len(ms))
	for _, m := range ms {
		out[m.OID] = true
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("nil space accepted")
	}
	sp := metric.VectorSpace("L2", 2)
	if _, err := Build([]metric.Object{metric.Vector{0, 0}}, Options{Space: sp, M: 1}); err == nil {
		t.Error("M=1 accepted")
	}
	if _, err := Build([]metric.Object{metric.Vector{0, 0}}, Options{Space: sp, BucketSize: -1}); err == nil {
		t.Error("negative bucket accepted")
	}
	if _, err := Build([]metric.Object{nil}, Options{Space: sp}); err == nil {
		t.Error("nil object accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := Build(nil, Options{Space: metric.VectorSpace("L2", 2)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Range(metric.Vector{0, 0}, 1, nil, nil)
	if err != nil || got != nil {
		t.Fatalf("empty range: %v %v", got, err)
	}
	nn, err := tr.NN(metric.Vector{0, 0}, 3, nil, nil)
	if err != nil || nn != nil {
		t.Fatalf("empty NN: %v %v", nn, err)
	}
}

func TestRangeMatchesScanAcrossShapes(t *testing.T) {
	for _, cfg := range []struct {
		m, bucket int
	}{{2, 1}, {3, 1}, {5, 1}, {2, 8}, {4, 16}} {
		d := dataset.PaperClustered(900, 5, int64(31+cfg.m))
		tr := buildVP(t, d, Options{M: cfg.m, BucketSize: cfg.bucket, Seed: 7})
		queries := dataset.PaperClusteredQueries(12, 5, int64(31+cfg.m)).Queries
		for _, q := range queries {
			for _, r := range []float64{0.05, 0.15, 0.35} {
				got, err := tr.Range(q, r, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := scanRange(d, q, r)
				gs, ws := oidSet(got), oidSet(want)
				if len(gs) != len(ws) {
					t.Fatalf("m=%d bucket=%d r=%g: %d vs %d results",
						cfg.m, cfg.bucket, r, len(gs), len(ws))
				}
				for oid := range ws {
					if !gs[oid] {
						t.Fatalf("m=%d bucket=%d: missing OID %d", cfg.m, cfg.bucket, oid)
					}
				}
			}
		}
	}
}

func TestAllObjectsIndexed(t *testing.T) {
	// A full-bound range query returns every object exactly once.
	d := dataset.Uniform(500, 3, 41)
	tr := buildVP(t, d, Options{M: 3, BucketSize: 4, Seed: 1})
	got, err := tr.Range(metric.Vector{0.5, 0.5, 0.5}, d.Space.Bound, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != d.N() {
		t.Fatalf("full-range query returned %d of %d objects", len(got), d.N())
	}
	if len(oidSet(got)) != d.N() {
		t.Fatal("duplicate OIDs in result")
	}
}

func TestNNMatchesScan(t *testing.T) {
	d := dataset.Words(700, 42)
	tr := buildVP(t, d, Options{M: 3, BucketSize: 4, Seed: 2})
	queries := dataset.WordQueries(10, 42).Queries
	for _, q := range queries {
		for _, k := range []int{1, 5, 20} {
			got, err := tr.NN(q, k, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := scanNN(d, q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results", k, len(got))
			}
			for i := range got {
				if got[i].Distance != want[i].Distance {
					t.Fatalf("k=%d rank %d: %g vs %g", k, i, got[i].Distance, want[i].Distance)
				}
			}
		}
	}
}

func TestNNArgErrors(t *testing.T) {
	d := dataset.Uniform(50, 2, 43)
	tr := buildVP(t, d, Options{})
	if _, err := tr.NN(nil, 1, nil, nil); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := tr.NN(d.Objects[0], 0, nil, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := tr.Range(nil, 1, nil, nil); err == nil {
		t.Error("nil range query accepted")
	}
	if _, err := tr.Range(d.Objects[0], -0.5, nil, nil); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestVisitStatsAndPruning(t *testing.T) {
	d := dataset.Uniform(2000, 6, 44)
	tr := buildVP(t, d, Options{M: 3, BucketSize: 1, Seed: 3})
	q := dataset.UniformQueries(1, 6, 9).Queries[0]
	var small, large VisitStats
	if _, err := tr.Range(q, 0.05, &small, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Range(q, 0.6, &large, nil); err != nil {
		t.Fatal(err)
	}
	if small.InternalVisits >= large.InternalVisits {
		t.Fatalf("no pruning: %d visits at r=0.05 vs %d at r=0.6",
			small.InternalVisits, large.InternalVisits)
	}
	// The tree must prune: a small-radius query should touch far fewer
	// than all nodes.
	if small.InternalVisits+small.LeafVisits >= tr.NumNodes() {
		t.Fatalf("small query visited all %d nodes", tr.NumNodes())
	}
}

func TestDistanceCounterTracksVisits(t *testing.T) {
	d := dataset.Uniform(800, 4, 45)
	tr := buildVP(t, d, Options{M: 2, BucketSize: 1, Seed: 4})
	tr.ResetCounters()
	var vs VisitStats
	if _, err := tr.Range(d.Objects[0], 0.1, &vs, nil); err != nil {
		t.Fatal(err)
	}
	// BucketSize=1: one distance per internal visit plus one per leaf
	// object scanned.
	want := int64(vs.InternalVisits + vs.LeafVisits)
	if got := tr.DistanceCount(); got != want {
		t.Fatalf("distance count %d, visits predict %d", got, want)
	}
}

func TestTreeShape(t *testing.T) {
	d := dataset.Uniform(1000, 3, 46)
	tr := buildVP(t, d, Options{M: 4, BucketSize: 1, Seed: 5})
	if tr.Size() != 1000 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if tr.M() != 4 || tr.BucketSize() != 1 {
		t.Fatal("options lost")
	}
	// Height of a 4-way tree over 1000 items ~ log4(1000) ≈ 5.
	if tr.Height() < 4 || tr.Height() > 12 {
		t.Fatalf("height = %d", tr.Height())
	}
	cut := tr.CutoffsAtRoot()
	if len(cut) != 3 {
		t.Fatalf("root has %d cutoffs, want 3", len(cut))
	}
	if !sort.Float64sAreSorted(cut) {
		t.Fatalf("cutoffs not increasing: %v", cut)
	}
}

func TestCutoffsApproximateQuantiles(t *testing.T) {
	// With equal-cardinality groups, the root cutoffs of a binary tree
	// approximate the median of the vantage point's distance
	// distribution; for a homogeneous space this is close to the global
	// median of F.
	d := dataset.Uniform(4000, 8, 47)
	tr := buildVP(t, d, Options{M: 2, BucketSize: 1, Seed: 6})
	cut := tr.CutoffsAtRoot()
	if len(cut) != 1 {
		t.Fatalf("cutoffs = %v", cut)
	}
	// Estimate the global median distance by sampling.
	var ds []float64
	for i := 0; i+1 < 2000; i += 2 {
		ds = append(ds, d.Space.Distance(d.Objects[i], d.Objects[i+1]))
	}
	sort.Float64s(ds)
	median := ds[len(ds)/2]
	if math.Abs(cut[0]-median) > 0.1 {
		t.Fatalf("root cutoff %g far from global median %g", cut[0], median)
	}
}
