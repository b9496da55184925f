package shard

import (
	"sort"
	"testing"

	"mcost/internal/budget"
	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

func fixture(t *testing.T, n, shards int, assign Assignment) (*Set, *dataset.Dataset) {
	t.Helper()
	d := dataset.PaperClustered(n, 6, 9001)
	set, err := Build(d.Space, d.Objects, Options{
		Shards: shards,
		Assign: assign,
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return set, d
}

func queries(n int) []metric.Object {
	return dataset.PaperClusteredQueries(n, 6, 9001).Queries
}

// canonical sorts a match set by (Distance, OID) — the order-free
// comparison for range results, whose concatenation order depends on
// sharding.
func canonical(ms []mtree.Match) []mtree.Match {
	out := append([]mtree.Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].OID < out[j].OID
	})
	return out
}

func sameSets(a, b []mtree.Match) bool {
	a, b = canonical(a), canonical(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].OID != b[i].OID || a[i].Distance != b[i].Distance {
			return false
		}
	}
	return true
}

// TestPivotShardsPrune checks that pivot sharding actually skips
// shards: small range queries on clustered data leave whole balls
// untouched, and k-NN prunes shards the running k-th distance rules
// out. Correctness is the root oracle's (TestOracle); this pins the
// savings.
func TestPivotShardsPrune(t *testing.T) {
	set, _ := fixture(t, 2000, 8, Pivot)
	qs := queries(32)
	set.ResetCosts()
	for _, q := range qs {
		if _, err := set.Range(q, 0.08, QueryOptions{UseParentDist: true}); err != nil {
			t.Fatal(err)
		}
	}
	if set.ShardsSkipped() == 0 {
		t.Error("small range queries skipped no shards on clustered pivot shards")
	}
	set.ResetCosts()
	for _, q := range qs {
		if _, err := set.NN(q, 5, QueryOptions{UseParentDist: true}); err != nil {
			t.Fatal(err)
		}
	}
	if set.ShardsSkipped() == 0 {
		t.Error("k-NN skipped no shards despite cost-ordered visits")
	}
	// Round-robin shards carry no geometric bound: nothing is skipped.
	rr, _ := fixture(t, 2000, 8, RoundRobin)
	rr.ResetCosts()
	for _, q := range qs {
		if _, err := rr.Range(q, 0.08, QueryOptions{UseParentDist: true}); err != nil {
			t.Fatal(err)
		}
	}
	if rr.ShardsSkipped() != 0 {
		t.Errorf("round-robin skipped %d shards without a bound to justify it", rr.ShardsSkipped())
	}
}

// TestShardCostAccounting checks Costs() sums tree counters plus the
// pivot distances, and that per-shard predictions sum into the set's.
func TestShardCostAccounting(t *testing.T) {
	set, _ := fixture(t, 1000, 4, Pivot)
	set.ResetCosts()
	if _, err := set.Range(queries(1)[0], 0.2, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	reads, dists := set.Costs()
	if reads <= 0 || dists <= 0 {
		t.Fatalf("costs %d reads / %d dists after a query", reads, dists)
	}
	var treeDists int64
	for _, sh := range set.Shards() {
		treeDists += sh.Tree.DistanceCount()
	}
	if dists <= treeDists {
		t.Errorf("Costs dists %d do not include the %d-shard pivot distances (tree dists %d)", dists, set.NumShards(), treeDists)
	}

	pr := set.PredictRange(0.2)
	if pr.Nodes <= 0 || pr.Dists <= 0 {
		t.Fatalf("range prediction %+v", pr)
	}
	var sum float64
	for _, sh := range set.Shards() {
		sum += sh.Model.RangeL(0.2).Nodes
	}
	if pr.Nodes != sum {
		t.Errorf("PredictRange nodes %.2f != per-shard sum %.2f", pr.Nodes, sum)
	}
	pn := set.PredictNN(5)
	if pn.Nodes <= 0 || pn.Dists <= 0 {
		t.Fatalf("NN prediction %+v", pn)
	}
}

// TestShardBudgetPartialResults runs a sharded range with a per-shard
// budget too small to finish: the typed error surfaces and partial
// results are true matches.
func TestShardBudgetPartialResults(t *testing.T) {
	set, d := fixture(t, 2000, 4, Pivot)
	q := queries(1)[0]
	const radius = 0.3
	got, err := set.Range(q, radius, QueryOptions{
		UseParentDist: true,
		Budget:        budget.Budget{MaxNodeReads: 3},
	})
	if err == nil {
		t.Fatal("3-node budget finished a 2000-object range query")
	}
	truth := map[uint64]float64{}
	for _, m := range mtree.LinearScanRange(d.Objects, d.Space, q, radius) {
		truth[m.OID] = m.Distance
	}
	for _, m := range got {
		if td, ok := truth[m.OID]; !ok || td != m.Distance {
			t.Fatalf("partial match OID %d dist %g is not a true match", m.OID, m.Distance)
		}
	}
}

// TestBuildValidation covers the construction contract.
func TestBuildValidation(t *testing.T) {
	d := dataset.PaperClustered(20, 3, 9100)
	if _, err := Build(nil, d.Objects, Options{Shards: 2}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := Build(d.Space, d.Objects, Options{Shards: 0}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := Build(d.Space, d.Objects[:3], Options{Shards: 2}); err == nil {
		t.Error("3 objects over 2 shards accepted (needs >= 2 per shard)")
	}
	if _, err := ParseAssignment("bogus"); err == nil {
		t.Error("bogus assignment parsed")
	}
	for _, s := range []string{"round-robin", "rr", "pivot"} {
		if _, err := ParseAssignment(s); err != nil {
			t.Errorf("ParseAssignment(%q): %v", s, err)
		}
	}
}

// TestShardGlobalOIDs checks that results carry global OIDs: the OID of
// every match indexes the original object slice and the object at that
// index is at the reported distance.
func TestShardGlobalOIDs(t *testing.T) {
	set, d := fixture(t, 800, 3, Pivot)
	q := queries(1)[0]
	ms, err := set.Range(q, 0.25, QueryOptions{UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
	for _, m := range ms {
		if m.OID >= uint64(len(d.Objects)) {
			t.Fatalf("OID %d out of global range", m.OID)
		}
		if got := d.Space.Distance(q, d.Objects[m.OID]); got != m.Distance {
			t.Fatalf("OID %d: global object at distance %g, match says %g", m.OID, got, m.Distance)
		}
	}
}
