package mtree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/obs"
)

// The arena engine's contract: bit-identical Matches (object, OID,
// distance), traces, and counter totals versus the store-backed
// traversal, for every query shape. Equality below is exact — == on
// float64 distances and full trace strings — because that is what the
// repo-wide cross-engine guarantees (result cache, router, golden
// files) are built on.

func sameMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].OID != want[i].OID || got[i].Distance != want[i].Distance {
			t.Fatalf("%s: match %d = (oid %d, d %v), want (oid %d, d %v)",
				label, i, got[i].OID, got[i].Distance, want[i].OID, want[i].Distance)
		}
	}
}

func hammingDataset(n, dim int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]metric.Object, n)
	for i := range objs {
		b := make([]byte, dim)
		for j := range b {
			b[j] = byte('0' + rng.Intn(2))
		}
		objs[i] = string(b)
	}
	return &dataset.Dataset{Name: "bits", Space: metric.HammingSpace(dim), Objects: objs}
}

// arenaCase is one (dataset, queries, radius) cell of the matrix.
type arenaCase struct {
	name    string
	d       *dataset.Dataset
	queries []metric.Object
	radius  float64
}

func arenaCases(t *testing.T) []arenaCase {
	t.Helper()
	vec := dataset.PaperClustered(600, 5, 3)
	vq := dataset.PaperClusteredQueries(24, 5, 3).Queries
	words := dataset.Words(500, 4)
	wq := dataset.WordQueries(24, 5).Queries
	bits := hammingDataset(500, 32, 6)
	bq := hammingDataset(24, 32, 7).Objects
	return []arenaCase{
		{"vectors-L2", vec, vq, 0.35},
		{"words-edit", words, wq, 3},
		{"bits-hamming", bits, bq, 8},
	}
}

func freezeClone(t *testing.T, d *dataset.Dataset) *Tree {
	t.Helper()
	tr := buildTree(t, d, Options{PageSize: 1024})
	if err := tr.FreezeArena(ArenaConfig{}); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestArenaEquivalence(t *testing.T) {
	for _, tc := range arenaCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref := buildTree(t, tc.d, Options{PageSize: 1024})
			arn := freezeClone(t, tc.d)
			if arn.Arena() == nil {
				t.Fatal("arena not attached")
			}
			for _, usePD := range []bool{false, true} {
				opt := QueryOptions{UseParentDist: usePD}
				for qi, q := range tc.queries {
					refTr, arnTr := obs.NewTrace(), obs.NewTrace()
					ropt, aopt := opt, opt
					ropt.Trace, aopt.Trace = refTr, arnTr

					ref.ResetCounters()
					arn.ResetCounters()
					want, err := ref.Range(q, tc.radius, ropt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := arn.Range(q, tc.radius, aopt)
					if err != nil {
						t.Fatal(err)
					}
					sameMatches(t, "range", got, want)
					if got := arnTr.String(); got != refTr.String() {
						t.Fatalf("range trace diverged:\narena: %s\nstore: %s", got, refTr)
					}
					if arn.DistanceCount() != ref.DistanceCount() || arn.NodeReads() != ref.NodeReads() {
						t.Fatalf("range counters: arena (%d, %d) vs store (%d, %d)",
							arn.DistanceCount(), arn.NodeReads(), ref.DistanceCount(), ref.NodeReads())
					}

					refTr.Reset()
					arnTr.Reset()
					want, err = ref.NN(q, 7, ropt)
					if err != nil {
						t.Fatal(err)
					}
					got, err = arn.NN(q, 7, aopt)
					if err != nil {
						t.Fatal(err)
					}
					sameMatches(t, "nn", got, want)
					if got := arnTr.String(); got != refTr.String() {
						t.Fatalf("nn trace diverged (query %d):\narena: %s\nstore: %s", qi, got, refTr)
					}
				}

				// Batch engines, at sizes hitting the 1/partial/full regimes.
				for _, bs := range []int{1, 5, len(tc.queries)} {
					qs := tc.queries[:bs]
					refTr, arnTr := obs.NewTrace(), obs.NewTrace()
					ropt, aopt := opt, opt
					ropt.Trace, aopt.Trace = refTr, arnTr
					wantB, err := ref.RangeBatch(qs, tc.radius, ropt)
					if err != nil {
						t.Fatal(err)
					}
					gotB, err := arn.RangeBatch(qs, tc.radius, aopt)
					if err != nil {
						t.Fatal(err)
					}
					for i := range wantB {
						sameMatches(t, "rangebatch", gotB[i], wantB[i])
					}
					if got := arnTr.String(); got != refTr.String() {
						t.Fatalf("rangebatch trace diverged:\narena: %s\nstore: %s", got, refTr)
					}

					refTr.Reset()
					arnTr.Reset()
					wantB, err = ref.NNBatch(qs, 5, ropt)
					if err != nil {
						t.Fatal(err)
					}
					gotB, err = arn.NNBatch(qs, 5, aopt)
					if err != nil {
						t.Fatal(err)
					}
					for i := range wantB {
						sameMatches(t, "nnbatch", gotB[i], wantB[i])
					}
					if got := arnTr.String(); got != refTr.String() {
						t.Fatalf("nnbatch trace diverged:\narena: %s\nstore: %s", got, refTr)
					}
				}
			}
		})
	}
}

func TestArenaAppendEntryPoints(t *testing.T) {
	d := dataset.PaperClustered(400, 4, 9)
	qs := dataset.PaperClusteredQueries(8, 4, 9).Queries
	ref := buildTree(t, d, Options{PageSize: 1024})
	arn := freezeClone(t, d)
	a := arn.Arena()
	opt := QueryOptions{UseParentDist: true}
	for _, q := range qs {
		want, err := ref.Range(q, 0.3, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.RangeAppend(nil, q, 0.3, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "RangeAppend", got, want)

		want, err = ref.NN(q, 6, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err = a.NNAppend(got[:0], q, 6, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "NNAppend", got, want)
	}
	if _, err := a.RangeAppend(nil, nil, 0.3, opt); err == nil {
		t.Fatal("RangeAppend accepted nil query")
	}
	if _, err := a.RangeAppend(nil, qs[0], -1, opt); err == nil {
		t.Fatal("RangeAppend accepted negative radius")
	}
	if _, err := a.NNAppend(nil, qs[0], 0, opt); err == nil {
		t.Fatal("NNAppend accepted k = 0")
	}
}

func TestArenaBudgetExhaustion(t *testing.T) {
	d := dataset.PaperClustered(500, 5, 2)
	q := dataset.PaperClusteredQueries(1, 5, 2).Queries[0]
	arn := freezeClone(t, d)
	opt := QueryOptions{UseParentDist: true, Budget: QueryBudget{MaxNodeReads: 3}}
	ms, err := arn.Range(q, 0.4, opt)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected budget stop, got %v", err)
	}
	for _, m := range ms {
		if m.Distance > 0.4 {
			t.Fatalf("partial result out of radius: %v", m.Distance)
		}
	}
	opt = QueryOptions{UseParentDist: true, Budget: QueryBudget{MaxDistCalcs: 10}}
	if _, err := arn.NN(q, 5, opt); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected NN budget stop, got %v", err)
	}
	// Context cancellation surfaces the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := arn.Range(q, 0.4, QueryOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context error, got %v", err)
	}
}

func TestArenaThawOnMutation(t *testing.T) {
	d := dataset.PaperClustered(200, 4, 5)
	arn := freezeClone(t, d)
	if arn.Arena() == nil {
		t.Fatal("arena not frozen")
	}
	if err := arn.Insert(metric.Vector{0.5, 0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if arn.Arena() != nil {
		t.Fatal("Insert did not thaw the arena")
	}
	// Refreeze captures the mutation; results match a fresh reference.
	if err := arn.FreezeArena(ArenaConfig{}); err != nil {
		t.Fatal(err)
	}
	ref, err := New(Options{Space: d.Space, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.InsertAll(append(append([]metric.Object{}, d.Objects...), metric.Vector{0.5, 0.5, 0.5, 0.5})); err != nil {
		t.Fatal(err)
	}
	q := metric.Vector{0.5, 0.5, 0.5, 0.5}
	want, err := ref.Range(q, 0.3, QueryOptions{UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := arn.Range(q, 0.3, QueryOptions{UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	sameMatches(t, "post-thaw refreeze", got, want)

	// Delete thaws too.
	if err := arn.Delete(d.Objects[0], 0); err != nil {
		t.Fatal(err)
	}
	if arn.Arena() != nil {
		t.Fatal("Delete did not thaw the arena")
	}
}

func TestArenaFreezeEdgeCases(t *testing.T) {
	tr, err := New(Options{Space: metric.VectorSpace("L2", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.FreezeArena(ArenaConfig{}); err == nil {
		t.Fatal("froze an empty tree")
	}
	// Generic domains (jaccard sets) freeze too, without a kernel.
	objs := []metric.Object{
		metric.StringSet{"a", "b"}, metric.StringSet{"b", "c"},
		metric.StringSet{"c"}, metric.StringSet{"a", "c", "d"},
	}
	st, err := New(Options{Space: metric.JaccardSpace(), PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll(objs); err != nil {
		t.Fatal(err)
	}
	if err := st.FreezeArena(ArenaConfig{}); err != nil {
		t.Fatal(err)
	}
	got, err := st.Range(metric.StringSet{"a", "b"}, 0.6, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("generic arena returned nothing")
	}
}

func TestArenaConcurrentQueries(t *testing.T) {
	d := dataset.PaperClustered(800, 5, 11)
	qs := dataset.PaperClusteredQueries(32, 5, 11).Queries
	arn := freezeClone(t, d)
	ref := buildTree(t, d, Options{PageSize: 1024})
	want := make([][]Match, len(qs))
	for i, q := range qs {
		w, err := ref.Range(q, 0.3, QueryOptions{UseParentDist: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	done := make(chan error, len(qs))
	for i, q := range qs {
		go func(i int, q metric.Object) {
			got, err := arn.Range(q, 0.3, QueryOptions{UseParentDist: true})
			if err == nil {
				for j := range got {
					if got[j].OID != want[i][j].OID || got[j].Distance != want[i][j].Distance {
						err = errors.New("concurrent arena result diverged")
						break
					}
				}
				if err == nil && len(got) != len(want[i]) {
					err = errors.New("concurrent arena result length diverged")
				}
			}
			done <- err
		}(i, q)
	}
	for range qs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
