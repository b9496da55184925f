package mcost

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"mcost/internal/recal"
)

// indexPins are sha256 digests of what an Index build produces: the
// fitted model's JSON, the tree statistics, and the matches and counted
// costs of a fixed query set. They pin the tree, F̂ and model an Index
// builds (bulk, incremental, paged, arena), so a refactor of the build
// or the serving path that moves any of them fails here.
var indexPins = map[string]string{
	"bulk":        "a39875e7f416d1237db8e4778c84d340f3c1b6fd6809e461f1dc516b5b6704d1",
	"incremental": "8c031fde6b66f59faabcdc02d64d4e26fa2d7ae20bff9f29ecbc30f97acb6d2b",
	"paged":       "a39875e7f416d1237db8e4778c84d340f3c1b6fd6809e461f1dc516b5b6704d1",
	"arena":       "a39875e7f416d1237db8e4778c84d340f3c1b6fd6809e461f1dc516b5b6704d1",
}

// recalPin is the digest of a recalibrated index's model and profile
// after writes past RefreshEvery: the refit path.
const recalPin = "aae3a90dd6f70e08245b3d9bd8509db59f8f9f2833f8bf0c6ef2be6ebc444d44"

func pinObjects() []Object { return randomVectors(1500, 6, 41) }

func pinQueries() []Object { return randomVectors(8, 6, 43) }

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// indexDigest writes everything pinned about ix into one hash.
func indexDigest(t *testing.T, ix *Index) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "stats %+v\n", ix.Stats())
	ix.ResetCosts()
	qs := pinQueries()
	for _, q := range qs {
		rs, err := ix.Range(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		nn, err := ix.NN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "range %v\nnn %v\n", matchKeys(rs), matchKeys(nn))
	}
	tr := NewQueryTrace()
	rb, err := ix.RangeBatchTraced(context.Background(), qs, 0.25, QueryBudget{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := ix.NNBatchTraced(context.Background(), qs, 7, QueryBudget{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		fmt.Fprintf(&buf, "rb %v\nnb %v\n", matchKeys(rb[i]), matchKeys(nb[i]))
	}
	nodes, dists := ix.Costs()
	fmt.Fprintf(&buf, "costs %d %d trace %d %d\n", nodes, dists, tr.TotalNodes(), tr.TotalDists())
	fmt.Fprintf(&buf, "price %v %v\n", ix.PriceRange(0.25), ix.PriceNN(7))
	return digest(buf.Bytes())
}

func matchKeys(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%d:%v", m.OID, m.Distance)
	}
	return out
}

// TestIndexBuildPinned holds Index builds, their models and their query
// results to the digests recorded before Index's tree side moved into
// internal/shard.
func TestIndexBuildPinned(t *testing.T) {
	space := VectorSpace("L2", 6)
	builds := map[string]Options{
		"bulk":        {},
		"incremental": {Incremental: true},
		"paged":       {Storage: StorageOptions{Paged: true, CachePages: 8}},
		"arena":       {Arena: ArenaOptions{Enabled: true}},
	}
	for name, opt := range builds {
		t.Run(name, func(t *testing.T) {
			opt.PageSize, opt.Seed, opt.Workers = 1024, 7, 2
			ix, err := Build(space, pinObjects(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := indexDigest(t, ix); got != indexPins[name] {
				t.Errorf("%s build digest %s, pinned %s", name, got, indexPins[name])
			}
		})
	}
}

// TestRecalibratedIndexPinned pins the model a recalibrated index refits
// to after inserts and deletes past RefreshEvery.
func TestRecalibratedIndexPinned(t *testing.T) {
	space := VectorSpace("L2", 6)
	objs := pinObjects()
	ix, err := Build(space, objs, Options{PageSize: 1024, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const every = 16
	if err := ix.EnableRecalibration(recal.Config{RefreshEvery: every, Seed: 9}, objs); err != nil {
		t.Fatal(err)
	}
	qs := pinQueries()
	var buf bytes.Buffer
	fresh := randomVectors(2*every, 6, 47)
	oids := make([]uint64, len(fresh))
	for i, o := range fresh {
		if _, err := ix.RangeBatchTraced(context.Background(), qs[i%len(qs):i%len(qs)+1], 0.3, QueryBudget{}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.NNBatchTraced(context.Background(), qs[i%len(qs):i%len(qs)+1], 4, QueryBudget{}, nil); err != nil {
			t.Fatal(err)
		}
		if oids[i], err = ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < every; i++ {
		if err := ix.Delete(fresh[i], oids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	st, _ := ix.RecalStats()
	fmt.Fprintf(&buf, "hardness %+v\nrecal %+v\nprice %v %v\n", ix.Hardness(), st, ix.PriceRange(0.3), ix.PriceNN(4))
	if got := digest(buf.Bytes()); got != recalPin {
		t.Errorf("recalibrated digest %s, pinned %s", got, recalPin)
	}
}

// shardedPins are shardedDigest's hashes of 3-shard builds under each
// assignment, recorded before ShardedIndex folded into Index.
var shardedPins = map[string]string{
	"pivot":       "e18c0ef81fda011ddc4eb351e591dec2f47a711c6827327176fa9341df1e3c63",
	"round-robin": "8d58bd3d621713a8082d73346b37e01c5d96aef8acf68a938fdeecb20653c639",
}

// shardedDigest writes everything pinned about a sharded build into one
// hash: each shard's model and tree statistics, the matches and counted
// costs of a fixed query set, the trace totals, the prices and the
// hardness profile.
func shardedDigest(t *testing.T, sx *Index) string {
	t.Helper()
	var buf bytes.Buffer
	for i, sh := range sx.set.Shards() {
		if err := sh.Model.Save(&buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "shard %d stats %+v\n", i, *sh.Stats)
	}
	sx.ResetCosts()
	qs := pinQueries()
	for _, q := range qs {
		rs, err := sx.Range(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		nn, err := sx.NN(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "range %v\nnn %v\n", matchKeys(rs), matchKeys(nn))
	}
	tr := NewQueryTrace()
	rb, err := sx.RangeBatchTraced(context.Background(), qs, 0.25, QueryBudget{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := sx.NNBatchTraced(context.Background(), qs, 7, QueryBudget{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		fmt.Fprintf(&buf, "rb %v\nnb %v\n", matchKeys(rb[i]), matchKeys(nb[i]))
	}
	nodes, dists := sx.Costs()
	fmt.Fprintf(&buf, "costs %d %d trace %d %d skipped %d\n", nodes, dists, tr.TotalNodes(), tr.TotalDists(), sx.ShardsSkipped())
	fmt.Fprintf(&buf, "price %v %v\nhardness %+v\n", sx.PriceRange(0.25), sx.PriceNN(7), sx.Hardness())
	return digest(buf.Bytes())
}

// TestShardedBuildPinned holds 3-shard builds, their per-shard models
// and their query results to digests recorded before ShardedIndex
// folded into Index.
func TestShardedBuildPinned(t *testing.T) {
	space := VectorSpace("L2", 6)
	for name, assign := range map[string]ShardAssignment{"pivot": ShardPivot, "round-robin": ShardRoundRobin} {
		t.Run(name, func(t *testing.T) {
			sx, err := BuildSharded(space, pinObjects(), Options{PageSize: 1024, Seed: 7, Workers: 2}, ShardOptions{Shards: 3, Assign: assign})
			if err != nil {
				t.Fatal(err)
			}
			if got := shardedDigest(t, sx); got != shardedPins[name] {
				t.Errorf("%s sharded digest %s, pinned %s", name, got, shardedPins[name])
			}
		})
	}
}
