package mtree

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/pager"
)

// buildTree indexes the dataset with the given options, failing the test
// on any error, and verifies the invariants.
func buildTree(t *testing.T, d *dataset.Dataset, opt Options) *Tree {
	t.Helper()
	opt.Space = d.Space
	tr, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertAll(d.Objects); err != nil {
		t.Fatal(err)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func matchOIDs(ms []Match) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.OID
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func sameOIDs(a, b []Match) bool {
	ao, bo := matchOIDs(a), matchOIDs(b)
	if len(ao) != len(bo) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := New(Options{Space: metric.VectorSpace("L2", 2), PageSize: 100}); err == nil {
		t.Error("tiny page accepted")
	}
	p, _ := pager.NewMem(PhysPageSize(4096))
	if _, err := New(Options{Space: metric.VectorSpace("L2", 2), Pager: p}); err == nil {
		t.Error("paged mode without codec accepted")
	}
	p2, _ := pager.NewMem(1024)
	if _, err := New(Options{Space: metric.VectorSpace("L2", 2), Pager: p2, Codec: VectorCodec{Dim: 2}, PageSize: 4096}); err == nil {
		t.Error("pager page-size mismatch accepted")
	}
}

func TestInsertSmall(t *testing.T) {
	d := dataset.Uniform(100, 3, 1)
	tr := buildTree(t, d, Options{PageSize: 512})
	if tr.Size() != 100 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if tr.Height() < 2 {
		t.Fatalf("height = %d, expected splits with a 512-byte page", tr.Height())
	}
	if tr.NumNodes() < 3 {
		t.Fatalf("NumNodes = %d", tr.NumNodes())
	}
}

func TestInsertErrors(t *testing.T) {
	tr, err := New(Options{Space: metric.VectorSpace("L2", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(nil); err == nil {
		t.Error("nil object accepted")
	}
	// Object larger than half a page.
	tr2, _ := New(Options{Space: metric.EditSpace(4096), PageSize: 256})
	big := make([]byte, 300)
	for i := range big {
		big[i] = 'a'
	}
	if err := tr2.Insert(string(big)); err == nil {
		t.Error("oversized object accepted")
	}
}

func TestRangeMatchesLinearScan(t *testing.T) {
	d := dataset.PaperClustered(800, 6, 2)
	tr := buildTree(t, d, Options{PageSize: 1024})
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		q := dataset.PaperClusteredQueries(1, 6, 2).Queries[0]
		_ = q
		q = d.Sample(rng, 1)[0] // also test with in-database queries
		for _, radius := range []float64{0.05, 0.15, 0.4} {
			got, err := tr.Range(q, radius, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := LinearScanRange(d.Objects, d.Space, q, radius)
			if !sameOIDs(got, want) {
				t.Fatalf("radius %g: tree returned %d, scan %d", radius, len(got), len(want))
			}
		}
	}
}

func TestRangeWithParentDistPruningSameResults(t *testing.T) {
	d := dataset.Uniform(600, 4, 4)
	tr := buildTree(t, d, Options{PageSize: 1024})
	q := dataset.UniformQueries(1, 4, 99).Queries[0]
	plain, err := tr.Range(q, 0.2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := tr.Range(q, 0.2, QueryOptions{UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(plain, pruned) {
		t.Fatal("pruning changed the result set")
	}
}

func TestParentDistPruningSavesDistances(t *testing.T) {
	d := dataset.PaperClustered(2000, 8, 5)
	tr := buildTree(t, d, Options{PageSize: 2048})
	queries := dataset.PaperClusteredQueries(20, 8, 5).Queries
	tr.ResetCounters()
	for _, q := range queries {
		if _, err := tr.Range(q, 0.1, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	plain := tr.DistanceCount()
	tr.ResetCounters()
	for _, q := range queries {
		if _, err := tr.Range(q, 0.1, QueryOptions{UseParentDist: true}); err != nil {
			t.Fatal(err)
		}
	}
	pruned := tr.DistanceCount()
	if pruned >= plain {
		t.Fatalf("pruning saved nothing: %d vs %d distances", pruned, plain)
	}
}

func TestRangeArgumentErrors(t *testing.T) {
	d := dataset.Uniform(10, 2, 1)
	tr := buildTree(t, d, Options{})
	if _, err := tr.Range(nil, 0.1, QueryOptions{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := tr.Range(d.Objects[0], -1, QueryOptions{}); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr, _ := New(Options{Space: metric.VectorSpace("L2", 2)})
	if got, err := tr.Range(metric.Vector{0, 0}, 1, QueryOptions{}); err != nil || got != nil {
		t.Fatalf("empty range: %v, %v", got, err)
	}
	if got, err := tr.NN(metric.Vector{0, 0}, 3, QueryOptions{}); err != nil || got != nil {
		t.Fatalf("empty NN: %v, %v", got, err)
	}
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNNMatchesLinearScan(t *testing.T) {
	d := dataset.PaperClustered(700, 5, 6)
	tr := buildTree(t, d, Options{PageSize: 1024})
	queries := dataset.PaperClusteredQueries(15, 5, 6).Queries
	for _, q := range queries {
		for _, k := range []int{1, 3, 10} {
			got, err := tr.NN(q, k, QueryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := LinearScanNN(d.Objects, d.Space, q, k)
			if len(got) != k {
				t.Fatalf("k=%d: got %d results", k, len(got))
			}
			// Distances must match exactly (ties may swap OIDs).
			for i := range got {
				if math.Abs(got[i].Distance-want[i].Distance) > 1e-12 {
					t.Fatalf("k=%d rank %d: distance %g, scan %g", k, i, got[i].Distance, want[i].Distance)
				}
			}
			// Results must be sorted.
			for i := 1; i < len(got); i++ {
				if got[i].Distance < got[i-1].Distance {
					t.Fatal("NN results not sorted")
				}
			}
		}
	}
}

func TestNNWithPruningSameDistances(t *testing.T) {
	d := dataset.Uniform(600, 4, 8)
	tr := buildTree(t, d, Options{PageSize: 1024})
	q := dataset.UniformQueries(1, 4, 77).Queries[0]
	a, err := tr.NN(q, 5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.NN(q, 5, QueryOptions{UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i].Distance-b[i].Distance) > 1e-12 {
			t.Fatalf("rank %d: %g vs %g", i, a[i].Distance, b[i].Distance)
		}
	}
}

func TestNNArgumentErrors(t *testing.T) {
	d := dataset.Uniform(10, 2, 1)
	tr := buildTree(t, d, Options{})
	if _, err := tr.NN(nil, 1, QueryOptions{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := tr.NN(d.Objects[0], 0, QueryOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestNNKLargerThanDataset(t *testing.T) {
	d := dataset.Uniform(20, 2, 2)
	tr := buildTree(t, d, Options{PageSize: 512})
	got, err := tr.NN(metric.Vector{0.5, 0.5}, 50, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("got %d results, want all 20", len(got))
	}
}

func TestCountersTrackQueries(t *testing.T) {
	d := dataset.Uniform(500, 3, 9)
	tr := buildTree(t, d, Options{PageSize: 1024})
	tr.ResetCounters()
	if tr.DistanceCount() != 0 || tr.NodeReads() != 0 {
		t.Fatal("counters not reset")
	}
	if _, err := tr.Range(metric.Vector{0.5, 0.5, 0.5}, 0.2, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if tr.DistanceCount() == 0 {
		t.Fatal("no distances counted")
	}
	if tr.NodeReads() == 0 {
		t.Fatal("no node reads counted")
	}
	if tr.NodeReads() > int64(tr.NumNodes()) {
		t.Fatalf("read %d nodes, tree has %d", tr.NodeReads(), tr.NumNodes())
	}
}

func TestRangeNoPruningVisitsEveryEntryOfAccessedNodes(t *testing.T) {
	// Without parent-distance pruning, the number of distance
	// computations equals the total entry count of every accessed node —
	// the exact quantity the cost model estimates (Eq. 7).
	d := dataset.Uniform(400, 3, 10)
	tr := buildTree(t, d, Options{PageSize: 1024})
	st, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	q := dataset.UniformQueries(1, 3, 5).Queries[0]
	tr.ResetCounters()
	if _, err := tr.Range(q, 0.15, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	// Re-run, recording accessed nodes by instrumenting a second pass:
	// compare distance count to the sum of entries over accessed nodes.
	// The root is always accessed; each descended child adds its entries.
	dists := tr.DistanceCount()
	reads := tr.NodeReads()
	if dists == 0 || reads == 0 {
		t.Fatal("query did nothing")
	}
	// Each accessed node contributes exactly len(entries) distances.
	// Verify the identity dists == sum(entries(accessed)) by a manual
	// traversal that follows rangeVisit's access rule.
	var walkDists, walkReads int64
	var walk func(id pager.PageID, q metric.Object, radius float64)
	walk = func(id pager.PageID, q metric.Object, radius float64) {
		n, err := tr.store.peek(id)
		if err != nil {
			t.Fatal(err)
		}
		walkReads++
		walkDists += int64(len(n.entries))
		for _, e := range n.entries {
			if n.leaf {
				continue
			}
			if tr.opt.Space.Distance(q, e.Object) <= radius+e.Radius {
				walk(e.Child, q, radius)
			}
		}
	}
	walk(tr.root, q, 0.15)
	if walkDists != dists || walkReads != reads {
		t.Fatalf("walk predicts %d dists/%d reads, counters say %d/%d",
			walkDists, walkReads, dists, reads)
	}
}

func TestStatsConsistency(t *testing.T) {
	d := dataset.PaperClustered(1500, 4, 11)
	tr := buildTree(t, d, Options{PageSize: 1024})
	st, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 1500 || st.LeafEntries != 1500 {
		t.Fatalf("size %d, leaf entries %d", st.Size, st.LeafEntries)
	}
	if st.Height != tr.Height() {
		t.Fatalf("height %d vs %d", st.Height, tr.Height())
	}
	if len(st.Nodes) != tr.NumNodes() {
		t.Fatalf("stats cover %d nodes, tree has %d", len(st.Nodes), tr.NumNodes())
	}
	// Level 1 is the root alone, with radius d+.
	if st.Levels[0].Nodes != 1 {
		t.Fatalf("root level has %d nodes", st.Levels[0].Nodes)
	}
	if st.Levels[0].AvgRadius != d.Space.Bound {
		t.Fatalf("root radius %g, want d+ %g", st.Levels[0].AvgRadius, d.Space.Bound)
	}
	// Paper identity: number of nodes at level l equals number of
	// entries at level l-1; total nodes match; leaves hold all objects.
	var totalNodes int
	for _, ls := range st.Levels {
		totalNodes += ls.Nodes
	}
	if totalNodes != tr.NumNodes() {
		t.Fatalf("level sums %d nodes, tree has %d", totalNodes, tr.NumNodes())
	}
	entriesPerLevel := make([]int, st.Height+1)
	for _, ns := range st.Nodes {
		entriesPerLevel[ns.Level] += ns.Entries
	}
	for l := 2; l <= st.Height; l++ {
		if entriesPerLevel[l-1] != st.Levels[l-1].Nodes {
			t.Fatalf("level %d: %d entries above but %d nodes", l, entriesPerLevel[l-1], st.Levels[l-1].Nodes)
		}
	}
	// CollectStats must not disturb counters.
	tr.ResetCounters()
	if _, err := tr.CollectStats(); err != nil {
		t.Fatal(err)
	}
	if tr.NodeReads() != 0 || tr.DistanceCount() != 0 {
		t.Fatal("CollectStats moved the cost counters")
	}
}

func TestPromotionPolicies(t *testing.T) {
	d := dataset.Uniform(400, 3, 12)
	for _, pp := range []PromotePolicy{PromoteMinMaxRadius, PromoteRandom} {
		tr := buildTree(t, d, Options{PageSize: 512, Promote: pp, Seed: 5})
		q := metric.Vector{0.3, 0.3, 0.3}
		got, err := tr.Range(q, 0.2, QueryOptions{})
		if err != nil {
			t.Fatalf("%v: %v", pp, err)
		}
		want := LinearScanRange(d.Objects, d.Space, q, 0.2)
		if !sameOIDs(got, want) {
			t.Fatalf("%v: wrong results", pp)
		}
	}
}

func TestMinMaxRadiusBeatsRandomOnRadii(t *testing.T) {
	d := dataset.PaperClustered(1200, 6, 13)
	sumLeafRadius := func(pp PromotePolicy) float64 {
		tr := buildTree(t, d, Options{PageSize: 1024, Promote: pp, Seed: 7})
		st, err := tr.CollectStats()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var cnt int
		for _, ns := range st.Nodes {
			if ns.Leaf {
				sum += ns.Radius
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	smart := sumLeafRadius(PromoteMinMaxRadius)
	random := sumLeafRadius(PromoteRandom)
	if smart >= random {
		t.Fatalf("mM_RAD average leaf radius %g not below random %g", smart, random)
	}
}

func TestStringObjects(t *testing.T) {
	d := dataset.Words(800, 14)
	tr := buildTree(t, d, Options{PageSize: 512})
	q := "castello"
	got, err := tr.Range(q, 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := LinearScanRange(d.Objects, d.Space, q, 3)
	if !sameOIDs(got, want) {
		t.Fatalf("edit-distance range: %d vs %d results", len(got), len(want))
	}
	nn, err := tr.NN(q, 5, QueryOptions{UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	wantNN := LinearScanNN(d.Objects, d.Space, q, 5)
	for i := range nn {
		if nn[i].Distance != wantNN[i].Distance {
			t.Fatalf("NN rank %d: %g vs %g", i, nn[i].Distance, wantNN[i].Distance)
		}
	}
}

func TestPagedModeEquivalence(t *testing.T) {
	d := dataset.Uniform(400, 3, 15)
	mem := buildTree(t, d, Options{PageSize: 1024, Seed: 3})

	pg, err := pager.NewMem(PhysPageSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	paged := buildTree(t, d, Options{
		PageSize: 1024,
		Pager:    pg,
		Codec:    VectorCodec{Dim: 3},
		Seed:     3,
	})

	if mem.NumNodes() != paged.NumNodes() || mem.Height() != paged.Height() {
		t.Fatalf("structure differs: %d/%d nodes, %d/%d height",
			mem.NumNodes(), paged.NumNodes(), mem.Height(), paged.Height())
	}
	q := metric.Vector{0.4, 0.6, 0.2}
	a, err := mem.Range(q, 0.25, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := paged.Range(q, 0.25, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(a, b) {
		t.Fatal("paged tree returned different results")
	}
	// Counters behave identically.
	mem.ResetCounters()
	paged.ResetCounters()
	mem.Range(q, 0.25, QueryOptions{})
	paged.Range(q, 0.25, QueryOptions{})
	if mem.NodeReads() != paged.NodeReads() || mem.DistanceCount() != paged.DistanceCount() {
		t.Fatalf("cost mismatch: reads %d/%d dists %d/%d",
			mem.NodeReads(), paged.NodeReads(), mem.DistanceCount(), paged.DistanceCount())
	}
}

func TestFilePagedTree(t *testing.T) {
	d := dataset.Words(300, 16)
	pg, err := pager.NewFile(t.TempDir()+"/tree.db", PhysPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	tr := buildTree(t, d, Options{PageSize: 512, Pager: pg, Codec: StringCodec{}})
	got, err := tr.NN("ferrore", 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := LinearScanNN(d.Objects, d.Space, "ferrore", 3)
	for i := range got {
		if got[i].Distance != want[i].Distance {
			t.Fatalf("rank %d: %g vs %g", i, got[i].Distance, want[i].Distance)
		}
	}
}

func TestConcurrentReadQueries(t *testing.T) {
	// Memory-mode trees allow concurrent read-only queries; counters are
	// atomic. Run with -race to validate.
	d := dataset.Uniform(1000, 4, 17)
	tr := buildTree(t, d, Options{PageSize: 1024})
	queries := dataset.UniformQueries(8, 4, 18).Queries
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*2)
	for _, q := range queries {
		wg.Add(1)
		go func(q metric.Object) {
			defer wg.Done()
			if _, err := tr.Range(q, 0.2, QueryOptions{UseParentDist: true}); err != nil {
				errs <- err
			}
			if _, err := tr.NN(q, 3, QueryOptions{}); err != nil {
				errs <- err
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tr.NodeReads() == 0 || tr.DistanceCount() == 0 {
		t.Fatal("counters did not accumulate")
	}
}

func TestRangeProfileMatchesCounters(t *testing.T) {
	d := dataset.PaperClustered(1200, 5, 19)
	tr := buildTree(t, d, Options{PageSize: 1024})
	q := dataset.PaperClusteredQueries(1, 5, 19).Queries[0]
	const radius = 0.15

	tr.ResetCounters()
	plain, err := tr.Range(q, radius, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantNodes, wantDists := tr.NodeReads(), tr.DistanceCount()

	tr.ResetCounters()
	matches, profile, err := tr.RangeProfile(q, radius)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(matches, plain) {
		t.Fatal("profile query returned different results")
	}
	nodes, dists := ProfileTotals(profile)
	if int64(nodes) != wantNodes || int64(dists) != wantDists {
		t.Fatalf("profile totals %d/%d, counters %d/%d", nodes, dists, wantNodes, wantDists)
	}
	if int64(nodes) != tr.NodeReads() || int64(dists) != tr.DistanceCount() {
		t.Fatal("profile run did not count like a plain run")
	}
	if len(profile) != tr.Height() {
		t.Fatalf("profile has %d levels, tree height %d", len(profile), tr.Height())
	}
	if profile[0].Nodes != 1 {
		t.Fatalf("root level accessed %d nodes", profile[0].Nodes)
	}
	// Level node counts never exceed the level sizes.
	st, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profile {
		if p.Nodes > st.Levels[i].Nodes {
			t.Fatalf("level %d: accessed %d of %d nodes", p.Level, p.Nodes, st.Levels[i].Nodes)
		}
	}
}

func TestRangeProfileErrors(t *testing.T) {
	d := dataset.Uniform(50, 2, 20)
	tr := buildTree(t, d, Options{PageSize: 512})
	if _, _, err := tr.RangeProfile(nil, 1); err == nil {
		t.Error("nil query accepted")
	}
	if _, _, err := tr.RangeProfile(d.Objects[0], -1); err == nil {
		t.Error("negative radius accepted")
	}
	empty, _ := New(Options{Space: metric.VectorSpace("L2", 2)})
	if m, p, err := empty.RangeProfile(metric.Vector{0, 0}, 1); err != nil || m != nil || p != nil {
		t.Errorf("empty tree profile: %v %v %v", m, p, err)
	}
}

func TestNNWithStopExactAtFullBound(t *testing.T) {
	d := dataset.PaperClustered(800, 5, 26)
	tr := buildTree(t, d, Options{PageSize: 1024})
	q := dataset.PaperClusteredQueries(1, 5, 26).Queries[0]
	exact, err := tr.NN(q, 7, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withStop, err := tr.NNWithStop(q, 7, d.Space.Bound, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(withStop) {
		t.Fatalf("%d vs %d results", len(exact), len(withStop))
	}
	for i := range exact {
		if exact[i].Distance != withStop[i].Distance {
			t.Fatalf("rank %d: %g vs %g", i, exact[i].Distance, withStop[i].Distance)
		}
	}
}

func TestNNWithStopTruncates(t *testing.T) {
	d := dataset.PaperClustered(800, 5, 27)
	tr := buildTree(t, d, Options{PageSize: 1024})
	q := dataset.PaperClusteredQueries(1, 5, 27).Queries[0]
	exact, err := tr.NN(q, 10, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Stop just past the 5th neighbor: at least 5 exact results come
	// back, none beyond the stop radius.
	stop := exact[4].Distance + 1e-9
	tr.ResetCounters()
	got, err := tr.NNWithStop(q, 10, stop, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truncDists := tr.DistanceCount()
	if len(got) < 5 {
		t.Fatalf("got %d results, want >= 5", len(got))
	}
	for i, m := range got {
		if m.Distance > stop {
			t.Fatalf("result %d at %g beyond stop %g", i, m.Distance, stop)
		}
		if m.Distance != exact[i].Distance {
			t.Fatalf("rank %d: %g vs exact %g", i, m.Distance, exact[i].Distance)
		}
	}
	tr.ResetCounters()
	if _, err := tr.NN(q, 10, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	if truncDists >= tr.DistanceCount() {
		t.Fatalf("truncated search cost %d not below exact %d", truncDists, tr.DistanceCount())
	}
}

func TestNNWithStopErrors(t *testing.T) {
	d := dataset.Uniform(50, 2, 28)
	tr := buildTree(t, d, Options{PageSize: 512})
	if _, err := tr.NNWithStop(nil, 1, 1, QueryOptions{}); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := tr.NNWithStop(d.Objects[0], 0, 1, QueryOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := tr.NNWithStop(d.Objects[0], 1, -1, QueryOptions{}); err == nil {
		t.Error("negative stop accepted")
	}
}
