package mtree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
)

// The arena engine's contract: bit-identical Matches (object, OID,
// distance), traces, and counter totals versus the store-backed
// traversal, for every query shape. Equality below is exact — == on
// float64 distances and full trace strings — because that is what the
// repo-wide cross-engine guarantees (result cache, router, golden
// files) are built on. The root package's TestOracle holds the arena
// to the store across spaces, shard counts and writes; the tests here
// pin its own entry points and edge cases.

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

func freezeClone(t *testing.T, d *dataset.Dataset) *Tree {
	t.Helper()
	tr := buildTree(t, d, Options{PageSize: 1024})
	if err := tr.FreezeArena(ArenaConfig{}); err != nil {
		t.Fatal(err)
	}
	return tr
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
