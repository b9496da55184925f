package mcost_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mcost"
	"mcost/internal/dataset"
)

// The churn equivalence contract: after an arbitrary seeded mix of
// inserts and deletes, a live engine must answer range and NN queries
// exactly like a fresh engine bulk-loaded over the surviving objects.
// The matrix extends the PR 4 option matrix with the write path:
// in-memory, paged, and faulty storage, single-tree and 3-shard
// engines, vector (L∞) and string (edit distance) data.

// churnEngine is the write-plus-query surface of *mcost.Index.
type churnEngine interface {
	Insert(obj mcost.Object) (uint64, error)
	Delete(obj mcost.Object, oid uint64) error
	Range(q mcost.Object, radius float64) ([]mcost.Match, error)
	NN(q mcost.Object, k int) ([]mcost.Match, error)
	Size() int
}

// survivor couples a live object with the OID the churned engine knows
// it by.
type survivor struct {
	oid uint64
	obj mcost.Object
}

func buildChurnEngine(t *testing.T, ds *dataset.Dataset, objs []mcost.Object, shards int, storage mcost.StorageOptions) churnEngine {
	t.Helper()
	opt := mcost.Options{Seed: 5, Workers: 1, Storage: storage}
	if shards > 1 {
		sx, err := mcost.BuildSharded(ds.Space, objs, opt, mcost.ShardOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if storage.Faults != nil {
			sx.SetFaultsEnabled(true)
		}
		return sx
	}
	ix, err := mcost.Build(ds.Space, objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if storage.Faults != nil {
		ix.SetFaultsEnabled(true)
	}
	return ix
}

// sortedByOID returns matches ordered by OID (result emission order is
// a tree-shape artifact; the contract is about the set).
func sortedByOID(ms []mcost.Match) []mcost.Match {
	out := append([]mcost.Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out
}

func TestChurnEquivalenceMatrix(t *testing.T) {
	type storageCase struct {
		name    string
		storage mcost.StorageOptions
	}
	storages := []storageCase{
		{"memory", mcost.StorageOptions{}},
		{"paged", mcost.StorageOptions{Paged: true, CachePages: 32}},
		{"faulty", mcost.StorageOptions{
			Paged: true,
			Faults: &mcost.FaultConfig{
				Seed:           9,
				ReadErrorRate:  0.02,
				WriteErrorRate: 0.01,
			},
		}},
	}
	type dsCase struct {
		name  string
		base  *dataset.Dataset
		extra *dataset.Dataset // insert stream
	}
	datasets := []dsCase{
		{"clustered", dataset.PaperClustered(400, 4, 2001), dataset.PaperClustered(300, 4, 7777)},
		{"words", dataset.Words(300, 2002), dataset.Words(200, 7778)},
	}

	for _, dc := range datasets {
		for _, sc := range storages {
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/%s/shards=%d", dc.name, sc.name, shards)
				t.Run(name, func(t *testing.T) {
					runChurnEquivalence(t, dc.base, dc.extra, shards, sc.storage)
				})
			}
		}
	}
}

func runChurnEquivalence(t *testing.T, base, extra *dataset.Dataset, shards int, storage mcost.StorageOptions) {
	eng := buildChurnEngine(t, base, base.Objects, shards, storage)

	// Bulk-loaded OIDs are positional: object i has OID i (globally, for
	// the sharded engine too).
	live := make([]survivor, 0, base.N()+extra.N())
	for i, obj := range base.Objects {
		live = append(live, survivor{oid: uint64(i), obj: obj})
	}

	// Property-style churn: a seeded random interleaving of inserts
	// (from the extra pool) and deletes (of a random live object),
	// biased toward inserts so the index grows through the run.
	rng := rand.New(rand.NewSource(31))
	nextExtra := 0
	for step := 0; step < 400; step++ {
		if rng.Float64() < 0.55 && nextExtra < extra.N() {
			obj := extra.Objects[nextExtra]
			nextExtra++
			oid, err := eng.Insert(obj)
			if err != nil {
				t.Fatalf("churn step %d: insert: %v", step, err)
			}
			live = append(live, survivor{oid: oid, obj: obj})
		} else if len(live) > 1 {
			i := rng.Intn(len(live))
			s := live[i]
			if err := eng.Delete(s.obj, s.oid); err != nil {
				t.Fatalf("churn step %d: delete OID %d: %v", step, s.oid, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if eng.Size() != len(live) {
		t.Fatalf("size after churn %d, survivors %d", eng.Size(), len(live))
	}

	// Deleting an already-deleted OID must fail loudly, not corrupt.
	if err := eng.Delete(extra.Objects[0], 1<<60); err == nil {
		t.Fatal("delete of unknown OID must error")
	}

	// Fresh engine over the survivors in ascending-OID order, on clean
	// in-memory storage: fresh OID i names the same object as
	// survivors[i].oid in the churned engine.
	sort.Slice(live, func(i, j int) bool { return live[i].oid < live[j].oid })
	objs := make([]mcost.Object, len(live))
	for i, s := range live {
		objs[i] = s.obj
	}
	fresh := buildChurnEngine(t, base, objs, shards, mcost.StorageOptions{})

	space := base.Space
	radius := 0.2 * space.Bound
	if space.Discrete {
		radius = math.Max(1, math.Floor(radius))
	}
	for qi := 0; qi < 10; qi++ {
		q := objs[(qi*37)%len(objs)]

		gotR, err := eng.Range(q, radius)
		if err != nil {
			t.Fatalf("churned range: %v", err)
		}
		wantR, err := fresh.Range(q, radius)
		if err != nil {
			t.Fatalf("fresh range: %v", err)
		}
		got, want := sortedByOID(gotR), sortedByOID(wantR)
		if len(got) != len(want) {
			t.Fatalf("query %d: churned range has %d matches, fresh %d", qi, len(got), len(want))
		}
		for i := range want {
			// Translate the fresh engine's positional OID back to the
			// churned engine's OID for the same object.
			wantOID := live[want[i].OID].oid
			if got[i].OID != wantOID ||
				math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("query %d match %d: churned (%d, %x) vs fresh (%d, %x)",
					qi, i, got[i].OID, math.Float64bits(got[i].Distance),
					wantOID, math.Float64bits(want[i].Distance))
			}
		}

		gotN, err := eng.NN(q, 5)
		if err != nil {
			t.Fatalf("churned NN: %v", err)
		}
		wantN, err := fresh.NN(q, 5)
		if err != nil {
			t.Fatalf("fresh NN: %v", err)
		}
		if len(gotN) != len(wantN) {
			t.Fatalf("query %d: churned NN has %d matches, fresh %d", qi, len(gotN), len(wantN))
		}
		for i := range wantN {
			// Distances are the contract rank by rank; equal-distance
			// ties may resolve to different objects in differently
			// shaped trees, so OIDs are only pinned on strict ranks.
			if math.Float64bits(gotN[i].Distance) != math.Float64bits(wantN[i].Distance) {
				t.Fatalf("query %d NN rank %d: churned %x vs fresh %x",
					qi, i, math.Float64bits(gotN[i].Distance), math.Float64bits(wantN[i].Distance))
			}
		}
	}
}
