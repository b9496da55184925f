package mcost

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"mcost/internal/advisor"
	"mcost/internal/core"
	"mcost/internal/histogram"
	"mcost/internal/recal"
)

func shardedFixture(t *testing.T, n, shards int, assign ShardAssignment, opt Options) (*Index, []Object) {
	t.Helper()
	objs := randomVectors(n, 5, 71)
	space := VectorSpace("L2", 5)
	sx, err := BuildSharded(space, objs, opt, ShardOptions{Shards: shards, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	return sx, objs
}

func canonicalMatches(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].OID < out[j].OID
	})
	return out
}

// TestShardedIndexMatchesIndex checks the facade end to end: a sharded
// index returns the same range results as a single Build index (as
// canonical sets — concatenation order differs by shard), the same k-NN
// distances, and OIDs are global.
func TestShardedIndexMatchesIndex(t *testing.T) {
	objs := randomVectors(2000, 5, 71)
	space := VectorSpace("L2", 5)
	ix, err := Build(space, objs, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, assign := range []ShardAssignment{ShardRoundRobin, ShardPivot} {
		sx, err := BuildSharded(space, objs, Options{Seed: 9}, ShardOptions{Shards: 4, Assign: assign})
		if err != nil {
			t.Fatal(err)
		}
		if sx.NumShards() != 4 || sx.Size() != len(objs) {
			t.Fatalf("%v: %d shards / %d objects", assign, sx.NumShards(), sx.Size())
		}
		sizes := sx.ShardSizes()
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total != len(objs) {
			t.Fatalf("%v: shard sizes %v do not cover the dataset", assign, sizes)
		}
		queries := randomVectors(12, 5, 72)
		const radius = 0.35
		batch, err := sx.RangeBatch(queries, radius)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want, err := ix.Range(q, radius)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sx.Range(q, radius)
			if err != nil {
				t.Fatal(err)
			}
			cw, cg, cb := canonicalMatches(want), canonicalMatches(got), canonicalMatches(batch[i])
			if len(cw) != len(cg) || len(cw) != len(cb) {
				t.Fatalf("%v query %d: %d vs %d vs %d matches", assign, i, len(cw), len(cg), len(cb))
			}
			for j := range cw {
				if cw[j].OID != cg[j].OID || cw[j].Distance != cg[j].Distance {
					t.Fatalf("%v query %d: range mismatch at %d", assign, i, j)
				}
				if cw[j].OID != cb[j].OID || cw[j].Distance != cb[j].Distance {
					t.Fatalf("%v query %d: batch mismatch at %d", assign, i, j)
				}
			}
			wantNN, err := ix.NN(q, 7)
			if err != nil {
				t.Fatal(err)
			}
			gotNN, err := sx.NN(q, 7)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wantNN {
				if wantNN[j].Distance != gotNN[j].Distance {
					t.Fatalf("%v query %d: NN distance mismatch at rank %d", assign, i, j)
				}
				if got := space.Distance(q, objs[gotNN[j].OID]); got != gotNN[j].Distance {
					t.Fatalf("%v query %d: OID %d not at reported distance", assign, i, gotNN[j].OID)
				}
			}
		}
	}
}

// TestShardedPredictionsAndCosts checks that the summed per-shard model
// predictions land in the same ballpark as measured sharded execution
// (full-traversal range queries, no shard pruning to invalidate the
// sum).
func TestShardedPredictionsAndCosts(t *testing.T) {
	sx, _ := shardedFixture(t, 3000, 3, ShardRoundRobin, Options{Seed: 13})
	queries := randomVectors(40, 5, 73)
	const radius = 0.3
	sx.ResetCosts()
	for _, q := range queries {
		if _, err := sx.Range(q, radius); err != nil {
			t.Fatal(err)
		}
	}
	reads, dists := sx.Costs()
	mReads := float64(reads) / float64(len(queries))
	mDists := float64(dists) / float64(len(queries))
	pred := sx.PredictRangeLevel(radius)
	if pred.Nodes <= 0 || pred.Dists <= 0 {
		t.Fatalf("prediction %+v", pred)
	}
	if ratio := pred.Dists / mDists; ratio < 0.4 || ratio > 2.5 {
		t.Errorf("predicted dists %.0f vs measured %.0f (ratio %.2f)", pred.Dists, mDists, ratio)
	}
	if ratio := pred.Nodes / mReads; ratio < 0.4 || ratio > 2.5 {
		t.Errorf("predicted nodes %.0f vs measured %.0f (ratio %.2f)", pred.Nodes, mReads, ratio)
	}
	if nn := sx.PredictNNLevel(5); nn.Nodes <= 0 || nn.Dists <= 0 {
		t.Errorf("NN prediction %+v", nn)
	}
}

// TestShardedPredictNNFollowsModelSwap: the shards price k-NN through
// their models' tables, and a recalibration refit swaps in a new model.
// After one, PredictNN must quote the refitted model — the sum, shard
// by shard, of what a model built afresh from the shard's F̂ and tree
// statistics prices cold — not the entry the old model had filled.
func TestShardedPredictNNFollowsModelSwap(t *testing.T) {
	sx, _ := shardedFixture(t, 900, 3, ShardPivot, Options{Seed: 19})
	if err := sx.EnableRecalibration(recal.Config{RefreshEvery: 16, Seed: 3}, nil); err != nil {
		t.Fatal(err)
	}
	const k = 10
	before := sx.PredictNNLevel(k)
	shards := sx.set.Shards()
	old := shards[0].Model
	// Objects next to shard 0's pivot all route to shard 0; the insert
	// that swaps its model ends the loop, so the live tree statistics are
	// the ones the refit read.
	pivot := shards[0].Pivot.(Vector)
	for i := 1; shards[0].Model == old; i++ {
		if i > 64 {
			t.Fatal("64 inserts into one shard and no model refit")
		}
		v := pivot.Clone()
		v[0] += float64(i) * 1e-6
		if _, err := sx.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	// The refit refreshes the hardness profile, which prices the new
	// model at large k; k itself must still be missing from its table.
	filled := shards[0].Model.CachedKs()
	var want CostEstimate
	for i, sh := range shards {
		stats, err := sh.Tree.CollectStats()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.NewMTreeModel(sh.F, stats)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		e := fresh.NNL(k)
		want.Nodes += e.Nodes
		want.Dists += e.Dists
	}
	got := sx.PredictNNLevel(k)
	if n := shards[0].Model.CachedKs(); n != filled+1 {
		t.Errorf("pricing k = %d took the refitted model's table from %d to %d entries, want one more", k, filled, n)
	}
	if got != want {
		t.Errorf("PredictNN(%d) after the refit = %+v, fresh models sum to %+v", k, got, want)
	}
	if got == before {
		t.Errorf("PredictNN(%d) did not move with the refit: %+v", k, got)
	}
}

// TestShardedHardnessFollowsRefit: Hardness is refreshed with the
// model. Once writes past RefreshEvery have refit the shards' models, it
// must be the profile ComputeProfile gives afresh from the re-merged
// shard F̂s, the scan as it stands and the refitted prices.
func TestShardedHardnessFollowsRefit(t *testing.T) {
	sx, _ := shardedFixture(t, 300, 3, ShardPivot, Options{Seed: 19})
	const every = 8
	if err := sx.EnableRecalibration(recal.Config{RefreshEvery: every, Seed: 3}, nil); err != nil {
		t.Fatal(err)
	}
	built := sx.Hardness()
	// Write until a shard refits for the second time; the loop ends on
	// that write, so the profile must be the one it refreshed.
	shards := sx.set.Shards()
	models := func() (ms []*core.MTreeModel) {
		for _, sh := range shards {
			ms = append(ms, sh.Model)
		}
		return ms
	}
	refits := 0
	for i, o := range randomVectors(6*every, 5, 29) {
		before := models()
		if _, err := sx.Insert(o); err != nil {
			t.Fatal(err)
		}
		for j, m := range models() {
			if m != before[j] {
				refits++
			}
		}
		if refits == 2 {
			break
		}
		if i == 6*every-1 {
			t.Fatalf("%d writes refit %d shard models", 6*every, refits)
		}
	}
	var fs []*histogram.Histogram
	for _, sh := range sx.set.Shards() {
		fs = append(fs, sh.F)
	}
	f, err := histogram.Merge(fs...)
	if err != nil {
		t.Fatal(err)
	}
	want := advisor.ComputeProfile(f, sx.scan.Size(), sx.scan.Pages(), sx.space.Bound, sx.tree())
	if fmt.Sprintf("%+v", want) == fmt.Sprintf("%+v", built) {
		t.Fatal("the writes left the profile where the build put it; nothing to check")
	}
	if got := sx.Hardness(); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("Hardness after the refits = %+v\nfresh ComputeProfile  = %+v", got, want)
	}
}

// TestShardedWorkload runs the workload engine through the sharded
// index in batches and checks the apportioned counts and sane
// measurements.
func TestShardedWorkload(t *testing.T) {
	sx, objs := shardedFixture(t, 2000, 3, ShardPivot, Options{Seed: 17})
	w := &Workload{Classes: []QueryClass{
		{Name: "lookup", Weight: 3, K: 3},
		{Name: "scan", Weight: 1, Radius: 0.3},
	}}
	rep, err := sx.RunWorkload(w, objs[:300], WorkloadOptions{Queries: 60, Batch: 16, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cr := range rep.Classes {
		total += cr.Queries
		if cr.Measured.Nodes <= 0 || cr.Measured.Dists <= 0 {
			t.Fatalf("%s: empty measurement", cr.Class.Name)
		}
		if cr.Pred.Nodes <= 0 || cr.Pred.Dists <= 0 {
			t.Fatalf("%s: empty prediction", cr.Class.Name)
		}
	}
	if total != 60 {
		t.Fatalf("executed %d queries, want exactly 60", total)
	}
	if rep.MeasuredMSPerQuery <= 0 || rep.PredMSPerQuery <= 0 {
		t.Fatal("zero millisecond projections")
	}
}

// TestShardedStorageAndFaults builds each shard on its own checksummed
// page stack with a fault schedule: queries agree with the memory-mode
// sharded index, and fault injection is contained per shard.
func TestShardedStorageAndFaults(t *testing.T) {
	objs := randomVectors(1200, 5, 71)
	space := VectorSpace("L2", 5)
	mem, err := BuildSharded(space, objs, Options{Seed: 21}, ShardOptions{Shards: 3, Assign: ShardPivot})
	if err != nil {
		t.Fatal(err)
	}
	paged, err := BuildSharded(space, objs, Options{
		Seed: 21,
		Storage: StorageOptions{
			Paged:         true,
			CachePages:    16,
			RetryAttempts: 3,
			Faults:        &FaultConfig{Seed: 5, ReadErrorRate: 0.02},
		},
	}, ShardOptions{Shards: 3, Assign: ShardPivot})
	if err != nil {
		t.Fatal(err)
	}
	if !paged.SetFaultsEnabled(true) {
		t.Fatal("no fault layers found")
	}
	defer paged.SetFaultsEnabled(false)
	queries := randomVectors(10, 5, 74)
	for i, q := range queries {
		want, err := mem.Range(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := paged.Range(q, 0.3)
		if err != nil {
			t.Fatal(err) // 2% fault rate with 3 retries: effectively always absorbed
		}
		cw, cg := canonicalMatches(want), canonicalMatches(got)
		if len(cw) != len(cg) {
			t.Fatalf("query %d: %d vs %d matches through faulty storage", i, len(cw), len(cg))
		}
		for j := range cw {
			if cw[j].OID != cg[j].OID || cw[j].Distance != cg[j].Distance {
				t.Fatalf("query %d: match %d differs through faulty storage", i, j)
			}
		}
	}
	if mem.SetFaultsEnabled(true) {
		t.Error("memory-mode sharded index claims a fault layer")
	}
}

// TestBuildShardedValidation covers the facade's argument contract.
func TestBuildShardedValidation(t *testing.T) {
	space := VectorSpace("L2", 2)
	objs := randomVectors(10, 2, 75)
	if _, err := BuildSharded(nil, objs, Options{}, ShardOptions{Shards: 2}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := BuildSharded(space, nil, Options{}, ShardOptions{Shards: 2}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := BuildSharded(space, objs, Options{}, ShardOptions{Shards: 0}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := BuildSharded(space, objs, Options{}, ShardOptions{Shards: 9}); err == nil {
		t.Error("10 objects over 9 shards accepted")
	}
	if a, err := ParseShardAssignment("pivot"); err != nil || a != ShardPivot {
		t.Errorf("ParseShardAssignment(pivot) = %v, %v", a, err)
	}
	if _, err := ParseShardAssignment("nope"); err == nil {
		t.Error("bogus assignment parsed")
	}
}

// TestShardedFaultStats: FaultStats sums the injected faults over the
// shards' page stacks, so a sharded faulty build reports them.
func TestShardedFaultStats(t *testing.T) {
	objs := randomVectors(1200, 5, 71)
	sx, err := BuildSharded(VectorSpace("L2", 5), objs, Options{
		Seed:    21,
		Storage: StorageOptions{Paged: true, RetryAttempts: 5, Faults: &FaultConfig{Seed: 5, ReadErrorRate: 0.05}},
	}, ShardOptions{Shards: 3, Assign: ShardPivot})
	if err != nil {
		t.Fatal(err)
	}
	if fs := sx.FaultStats(); fs != (FaultStats{}) {
		t.Fatalf("faults before any were enabled: %+v", fs)
	}
	sx.SetFaultsEnabled(true)
	for _, q := range randomVectors(20, 5, 74) {
		if _, err := sx.Range(q, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	if fs := sx.FaultStats(); fs.ReadErrors == 0 {
		t.Errorf("20 range queries at a 5%% read fault rate report %+v", fs)
	}
}

// TestOneTreeOperations: the operations that need one tree — its whole
// model, one traversal — answer on one shard and refuse on three, with
// ErrSharded or NaN, never a number that looks right.
func TestOneTreeOperations(t *testing.T) {
	objs := randomVectors(600, 5, 71)
	q := objs[3]
	preds := []Pred{{Q: q, Radius: 0.3}, {Q: objs[4], Radius: 0.4}}
	errs := map[string]func(ix *Index) error{
		"SaveModel":      func(ix *Index) error { return ix.SaveModel(io.Discard) },
		"NNApprox":       func(ix *Index) error { _, err := ix.NNApprox(q, 5, 0.9); return err },
		"ExplainRange":   func(ix *Index) error { _, _, err := ix.ExplainRange(q, 0.3); return err },
		"RangeAnd":       func(ix *Index) error { _, err := ix.RangeAnd(preds); return err },
		"RangeOr":        func(ix *Index) error { _, err := ix.RangeOr(preds); return err },
		"SimilarityJoin": func(ix *Index) error { _, err := ix.SimilarityJoin(0.05); return err },
	}
	nans := map[string]func(ix *Index) float64{
		"ExpectedNNDistance": func(ix *Index) float64 { return ix.ExpectedNNDistance(5) },
		"PredictJoin":        func(ix *Index) float64 { return ix.PredictJoin(0.05).Pairs },
	}
	for _, shards := range []int{1, 3} {
		ix, _ := shardedFixture(t, 600, shards, ShardPivot, Options{Seed: 13})
		for name, f := range errs {
			err := f(ix)
			if shards == 1 && err != nil {
				t.Errorf("%s on one shard: %v", name, err)
			}
			if shards > 1 && !errors.Is(err, ErrSharded) {
				t.Errorf("%s on %d shards = %v, want ErrSharded", name, shards, err)
			}
		}
		for name, f := range nans {
			if v := f(ix); math.IsNaN(v) != (shards > 1) {
				t.Errorf("%s on %d shards = %v", name, shards, v)
			}
		}
	}
}
