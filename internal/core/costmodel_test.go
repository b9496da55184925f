package core

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/mtree"
)

// fixture bundles a dataset, its bulk-loaded M-tree, and the fitted
// model, shared across validation tests.
type fixture struct {
	d     *dataset.Dataset
	tr    *mtree.Tree
	model *MTreeModel
}

func newFixture(t *testing.T, d *dataset.Dataset, pageSize int) *fixture {
	t.Helper()
	tr, err := mtree.New(mtree.Options{Space: d.Space, PageSize: pageSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(d.Objects); err != nil {
		t.Fatal(err)
	}
	st, err := tr.CollectStats()
	if err != nil {
		t.Fatal(err)
	}
	f, err := distdist.Estimate(d, distdist.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewMTreeModel(f, st)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{d: d, tr: tr, model: model}
}

// measure runs the query workload with the optimization-free settings the
// model assumes and returns average node reads and distances per query.
func (fx *fixture) measureRange(t *testing.T, queries []interface{}, radius float64) (nodes, dists float64) {
	t.Helper()
	fx.tr.ResetCounters()
	for _, q := range queries {
		if _, err := fx.tr.Range(q, radius, mtree.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	nq := float64(len(queries))
	return float64(fx.tr.NodeReads()) / nq, float64(fx.tr.DistanceCount()) / nq
}

func relErr(est, actual float64) float64 {
	if actual == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-actual) / actual
}

func TestNewMTreeModelValidation(t *testing.T) {
	f, _ := histogram.FromSamples([]float64{0.5}, 10, 1, false)
	if _, err := NewMTreeModel(nil, &mtree.Stats{Size: 1}); err == nil {
		t.Error("nil F accepted")
	}
	if _, err := NewMTreeModel(f, nil); err == nil {
		t.Error("nil stats accepted")
	}
	if _, err := NewMTreeModel(f, &mtree.Stats{}); err == nil {
		t.Error("empty stats accepted")
	}
	if _, err := NewMTreeModel(f, &mtree.Stats{Size: 5, Height: 2}); err == nil {
		t.Error("inconsistent levels accepted")
	}
}

func TestRangeModelAccuracy(t *testing.T) {
	// The headline validation: N-MCM within a few percent, L-MCM within
	// ~10-15% (the paper's Figures 1 and 4).
	dims := []int{5, 10, 20}
	for _, dim := range dims {
		d := dataset.PaperClustered(5000, dim, int64(100+dim))
		fx := newFixture(t, d, 4096)
		radius := math.Pow(0.01, 1/float64(dim)) / 2
		queries := make([]interface{}, 0, 100)
		for _, q := range dataset.PaperClusteredQueries(100, dim, int64(100+dim)).Queries {
			queries = append(queries, q)
		}
		actNodes, actDists := fx.measureRange(t, queries, radius)

		estN := fx.model.RangeN(radius)
		estL := fx.model.RangeL(radius)
		if e := relErr(estN.Nodes, actNodes); e > 0.15 {
			t.Errorf("D=%d: N-MCM nodes err %.0f%% (est %.1f act %.1f)", dim, e*100, estN.Nodes, actNodes)
		}
		if e := relErr(estN.Dists, actDists); e > 0.15 {
			t.Errorf("D=%d: N-MCM dists err %.0f%% (est %.1f act %.1f)", dim, e*100, estN.Dists, actDists)
		}
		if e := relErr(estL.Nodes, actNodes); e > 0.30 {
			t.Errorf("D=%d: L-MCM nodes err %.0f%% (est %.1f act %.1f)", dim, e*100, estL.Nodes, actNodes)
		}
		if e := relErr(estL.Dists, actDists); e > 0.30 {
			t.Errorf("D=%d: L-MCM dists err %.0f%% (est %.1f act %.1f)", dim, e*100, estL.Dists, actDists)
		}
	}
}

func TestRangeObjectsSelectivity(t *testing.T) {
	d := dataset.PaperClustered(4000, 10, 200)
	fx := newFixture(t, d, 4096)
	radius := math.Pow(0.01, 0.1) / 2
	queries := dataset.PaperClusteredQueries(200, 10, 200).Queries
	var total int
	for _, q := range queries {
		ms, err := fx.tr.Range(q, radius, mtree.QueryOptions{UseParentDist: true})
		if err != nil {
			t.Fatal(err)
		}
		total += len(ms)
	}
	actual := float64(total) / float64(len(queries))
	est := fx.model.RangeObjects(radius)
	if e := relErr(est, actual); e > 0.15 {
		t.Fatalf("selectivity err %.0f%%: est %.1f actual %.1f", e*100, est, actual)
	}
}

func TestExpectedNNDistMatchesMeasured(t *testing.T) {
	d := dataset.PaperClustered(4000, 10, 300)
	fx := newFixture(t, d, 4096)
	queries := dataset.PaperClusteredQueries(150, 10, 300).Queries
	for _, k := range []int{1, 5, 20} {
		var sum float64
		for _, q := range queries {
			nn, err := fx.tr.NN(q, k, mtree.QueryOptions{UseParentDist: true})
			if err != nil {
				t.Fatal(err)
			}
			sum += nn[k-1].Distance
		}
		actual := sum / float64(len(queries))
		est := fx.model.ExpectedNNDist(k)
		if e := relErr(est, actual); e > 0.2 {
			t.Errorf("k=%d: E[nn] err %.0f%% (est %.3f actual %.3f)", k, e*100, est, actual)
		}
	}
}

func TestExpectedNNDistMonotoneInK(t *testing.T) {
	d := dataset.Uniform(2000, 8, 301)
	fx := newFixture(t, d, 4096)
	prev := 0.0
	for k := 1; k <= 50; k += 7 {
		e := fx.model.ExpectedNNDist(k)
		if e < prev {
			t.Fatalf("E[nn_%d] = %g below E[nn] for smaller k %g", k, e, prev)
		}
		prev = e
	}
}

func TestNNModelAccuracy(t *testing.T) {
	d := dataset.PaperClustered(5000, 10, 302)
	fx := newFixture(t, d, 4096)
	queries := dataset.PaperClusteredQueries(150, 10, 302).Queries
	fx.tr.ResetCounters()
	for _, q := range queries {
		if _, err := fx.tr.NN(q, 1, mtree.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	nq := float64(len(queries))
	actNodes := float64(fx.tr.NodeReads()) / nq
	actDists := float64(fx.tr.DistanceCount()) / nq

	estL := fx.model.NNL(1)
	estN := fx.model.NNN(1)
	// NN estimates carry more error than range (the paper's Figure 2).
	if e := relErr(estL.Nodes, actNodes); e > 0.4 {
		t.Errorf("L-MCM NN nodes err %.0f%% (est %.1f act %.1f)", e*100, estL.Nodes, actNodes)
	}
	if e := relErr(estL.Dists, actDists); e > 0.4 {
		t.Errorf("L-MCM NN dists err %.0f%% (est %.1f act %.1f)", e*100, estL.Dists, actDists)
	}
	if e := relErr(estN.Nodes, actNodes); e > 0.4 {
		t.Errorf("N-MCM NN nodes err %.0f%% (est %.1f act %.1f)", e*100, estN.Nodes, actNodes)
	}
	// The three estimators should broadly agree with each other.
	alt := fx.model.NNViaExpectedDist(1)
	if relErr(alt.Nodes, estL.Nodes) > 0.8 {
		t.Errorf("range(E[nn]) estimator %.1f wildly off L-MCM %.1f", alt.Nodes, estL.Nodes)
	}
}

func TestRadiusForExpectedObjects(t *testing.T) {
	d := dataset.Uniform(3000, 6, 303)
	fx := newFixture(t, d, 4096)
	r1 := fx.model.RadiusForExpectedObjects(1)
	if r1 <= 0 || r1 >= d.Space.Bound {
		t.Fatalf("r(1) = %g out of range", r1)
	}
	// n·F(r(1)) ≈ 1 by construction.
	if got := fx.model.RangeObjects(r1); got < 0.5 || got > 2.5 {
		t.Fatalf("n·F(r(1)) = %g, want ≈ 1", got)
	}
	// Monotone in the target count.
	if fx.model.RadiusForExpectedObjects(10) <= r1 {
		t.Fatal("r(10) not above r(1)")
	}
}

func TestRangeCostMonotoneInRadius(t *testing.T) {
	d := dataset.PaperClustered(2000, 10, 304)
	fx := newFixture(t, d, 2048)
	var prevN, prevL CostEstimate
	for _, r := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
		n := fx.model.RangeN(r)
		l := fx.model.RangeL(r)
		if n.Nodes < prevN.Nodes || n.Dists < prevN.Dists {
			t.Fatalf("N-MCM not monotone at r=%g", r)
		}
		if l.Nodes < prevL.Nodes || l.Dists < prevL.Dists {
			t.Fatalf("L-MCM not monotone at r=%g", r)
		}
		prevN, prevL = n, l
	}
	// At r = d+, every node is predicted accessed and every entry
	// compared.
	full := fx.model.RangeN(d.Space.Bound)
	if math.Abs(full.Nodes-float64(fx.tr.NumNodes())) > 1e-6 {
		t.Fatalf("full-radius nodes = %g, tree has %d", full.Nodes, fx.tr.NumNodes())
	}
}

func TestModelOnTextDataset(t *testing.T) {
	d := dataset.Words(4000, 305)
	fx := newFixture(t, d, 4096)
	queries := make([]interface{}, 0, 100)
	for _, q := range dataset.WordQueries(100, 305).Queries {
		queries = append(queries, q)
	}
	actNodes, actDists := fx.measureRange(t, queries, 3)
	estN := fx.model.RangeN(3)
	estL := fx.model.RangeL(3)
	// Paper Figure 3: errors usually below 10%, rarely 15%. Allow slack
	// for the synthetic vocabulary and discrete histogram.
	if e := relErr(estN.Nodes, actNodes); e > 0.25 {
		t.Errorf("text N-MCM nodes err %.0f%% (est %.1f act %.1f)", e*100, estN.Nodes, actNodes)
	}
	if e := relErr(estN.Dists, actDists); e > 0.25 {
		t.Errorf("text N-MCM dists err %.0f%% (est %.1f act %.1f)", e*100, estN.Dists, actDists)
	}
	if e := relErr(estL.Nodes, actNodes); e > 0.35 {
		t.Errorf("text L-MCM nodes err %.0f%% (est %.1f act %.1f)", e*100, estL.Nodes, actNodes)
	}
	_ = estL
}

func TestDiskParams(t *testing.T) {
	p := PaperDiskParams()
	if got := p.IOCostMS(8 * 1024); math.Abs(got-18) > 1e-12 {
		t.Fatalf("IO cost of 8KB node = %g, want 18ms", got)
	}
	est := CostEstimate{Nodes: 10, Dists: 100}
	want := 5.0*100 + 18.0*10
	if got := p.TotalMS(est, 8*1024); math.Abs(got-want) > 1e-9 {
		t.Fatalf("TotalMS = %g, want %g", got, want)
	}
}

func TestBestNodeSize(t *testing.T) {
	if _, err := BestNodeSize(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	pts := []TuningPoint{
		{NodeSize: 1024, TotalMS: 50},
		{NodeSize: 8192, TotalMS: 20},
		{NodeSize: 65536, TotalMS: 90},
	}
	best, err := BestNodeSize(pts)
	if err != nil {
		t.Fatal(err)
	}
	if best.NodeSize != 8192 {
		t.Fatalf("best = %d", best.NodeSize)
	}
}

func TestFullRadiusIdentities(t *testing.T) {
	// At rq = d+ every node is accessed and every entry compared, so the
	// models collapse to closed forms: nodes = M and dists = n + (M - 1)
	// (every non-root node is an entry of its parent; leaves hold n).
	for _, d := range []*dataset.Dataset{
		dataset.Uniform(1500, 4, 1401),
		dataset.PaperClustered(1500, 8, 1402),
		dataset.Words(1500, 1403),
	} {
		fx := newFixture(t, d, 1024)
		m := float64(fx.tr.NumNodes())
		n := float64(d.N())
		bound := d.Space.Bound
		for _, model := range []struct {
			name string
			est  CostEstimate
		}{
			{"N-MCM", fx.model.RangeN(bound)},
			{"L-MCM", fx.model.RangeL(bound)},
		} {
			if math.Abs(model.est.Nodes-m) > 1e-6 {
				t.Errorf("%s %s: full-radius nodes %.3f, want %g", d.Name, model.name, model.est.Nodes, m)
			}
			if math.Abs(model.est.Dists-(n+m-1)) > 1e-6 {
				t.Errorf("%s %s: full-radius dists %.3f, want %g", d.Name, model.name, model.est.Dists, n+m-1)
			}
		}
	}
}

func TestModelMonotonicityQuick(t *testing.T) {
	d := dataset.PaperClustered(1500, 6, 1404)
	fx := newFixture(t, d, 1024)
	bound := d.Space.Bound
	f := func(a, b float64) bool {
		r1 := math.Abs(math.Mod(a, bound))
		r2 := math.Abs(math.Mod(b, bound))
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		n1, n2 := fx.model.RangeN(r1), fx.model.RangeN(r2)
		l1, l2 := fx.model.RangeL(r1), fx.model.RangeL(r2)
		return n1.Nodes <= n2.Nodes+1e-9 && n1.Dists <= n2.Dists+1e-9 &&
			l1.Nodes <= l2.Nodes+1e-9 && l1.Dists <= l2.Dists+1e-9 &&
			n1.Nodes >= 0 && n1.Dists >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNNCostsMonotoneInK(t *testing.T) {
	d := dataset.Uniform(1200, 5, 1405)
	fx := newFixture(t, d, 1024)
	var prevN, prevL CostEstimate
	for _, k := range []int{1, 2, 5, 10, 25, 60} {
		nn := fx.model.NNN(k)
		nl := fx.model.NNL(k)
		if nn.Nodes < prevN.Nodes-1e-9 || nn.Dists < prevN.Dists-1e-9 {
			t.Fatalf("NNN not monotone at k=%d", k)
		}
		if nl.Nodes < prevL.Nodes-1e-9 || nl.Dists < prevL.Dists-1e-9 {
			t.Fatalf("NNL not monotone at k=%d", k)
		}
		prevN, prevL = nn, nl
		// NN costs are bounded by the full scan.
		full := fx.model.RangeN(d.Space.Bound)
		if nn.Dists > full.Dists || nn.Nodes > full.Nodes {
			t.Fatalf("k=%d: NN estimate exceeds full-radius costs", k)
		}
	}
}

// prefixEqualsNNL asserts NNLPrefix(K)[k-1] == NNL(k), both fields, for
// the given k.
func prefixEqualsNNL(t *testing.T, label string, m *MTreeModel, K int, ks []int) []CostEstimate {
	t.Helper()
	prefix := m.NNLPrefix(K)
	if want := min(K, m.N()); len(prefix) != want {
		t.Fatalf("%s: NNLPrefix(%d) has %d prices, want %d", label, K, len(prefix), want)
	}
	for _, k := range ks {
		if got, want := prefix[k-1], m.NNL(k); got != want {
			t.Fatalf("%s: k=%d: prefix %+v, NNL %+v", label, k, got, want)
		}
	}
	return prefix
}

func upTo(k int) []int {
	ks := make([]int, k)
	for i := range ks {
		ks[i] = i + 1
	}
	return ks
}

func TestNNLPrefixEqualsNNL(t *testing.T) {
	// Every k <= n, both binomial tails, on a fixture small enough to
	// afford the ~n²/4 binomial terms per grid point that calling NNL for
	// each costs (on a coarser grid for the same reason; the identity is
	// per cell). K past n prices n.
	small := newFixture(t, dataset.PaperClustered(301, 6, 1407), 1024)
	small.model.steps = 400
	prefixEqualsNNL(t, "clustered n=301", small.model, 1000, upTo(301))
	// A shorter prefix is the same prices, cut, on either side of the
	// lower-tail limit.
	for _, K := range []int{7, 151, 152, 300} {
		if got, want := small.model.NNLPrefix(K), small.model.NNLPrefix(301)[:K]; !reflect.DeepEqual(got, want) {
			t.Fatalf("NNLPrefix(%d) = %+v, want %+v", K, got, want)
		}
	}
	if got := small.model.NNLPrefix(0); len(got) != 0 {
		t.Fatalf("NNLPrefix(0) = %+v", got)
	}

	// The full grid at the size the other tests use, at sampled k on
	// both sides of the lower-tail limit.
	fx := newFixture(t, dataset.Uniform(1200, 5, 1405), 1024)
	prefixEqualsNNL(t, "uniform n=1200", fx.model, 1200, []int{1, 2, 3, 10, 60, 599, 600, 601, 1199, 1200})

	// A point-mass F̂: P_{Q,k} jumps from 0 to 1 inside one bin for every
	// k, so each price is a handful of cells.
	weights := make([]float64, 50)
	weights[20] = 1
	point, err := histogram.FromWeightedCounts(weights, small.d.Space.Bound, false)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewMTreeModel(point, small.model.stats)
	if err != nil {
		t.Fatal(err)
	}
	pm.steps = 400
	prefixEqualsNNL(t, "point mass", pm, 301, upTo(301))

	// Past the breakdown point (uniform D=64) every k-NN query reads the
	// whole tree: the prices differ from k to k in the last few bits
	// only, which is the case "equal" has to mean bit for bit.
	curse := newFixture(t, dataset.Uniform(301, 64, 1408), 4096)
	curse.model.steps = 400
	prices := prefixEqualsNNL(t, "uniform D=64", curse.model, 301, upTo(301))
	lo, hi := prices[0].Dists, prices[0].Dists
	for _, e := range prices {
		lo, hi = math.Min(lo, e.Dists), math.Max(hi, e.Dists)
	}
	if (hi-lo)/hi > 1e-9 {
		t.Fatalf("uniform D=64 prices are no plateau: dists %v..%v", lo, hi)
	}
}

// TestNNTableEqualsUncached: the table is a cache in front of NNL and
// ExpectedNNDist, not a second way to price — on the fill and on the
// hit every value equals the uncached one bit for bit, at the clamping
// edges (k <= 0 prices as 1, k > n as n) and on both sides of the
// binomial tail's switch at (n+1)/2.
func TestNNTableEqualsUncached(t *testing.T) {
	fx := newFixture(t, dataset.PaperClustered(301, 6, 1407), 1024)
	m := fx.model
	m.steps = 400 // NNL(n) is an n-term sum per grid point
	n := m.N()
	for _, pass := range []string{"fill", "hit"} {
		for _, k := range []int{-1, 0, 1, 2, 10, (n + 1) / 2, n, n + 5} {
			if got, want := m.NNLCached(k), m.NNL(k); got != want {
				t.Errorf("%s k=%d: NNLCached %+v, NNL %+v", pass, k, got, want)
			}
			if got, want := m.ExpectedNNDistCached(k), m.ExpectedNNDist(k); got != want {
				t.Errorf("%s k=%d: ExpectedNNDistCached %v, ExpectedNNDist %v", pass, k, got, want)
			}
		}
	}
	// -1, 0 and 1 share an entry, as do n and n+5.
	if got := m.CachedKs(); got != 5 {
		t.Errorf("table holds %d entries after 8 k that clamp to 5", got)
	}
}

// TestNNTableConcurrent hammers one model's table from 32 goroutines
// with interleaved k, cold: every read is the uncached value and the
// table ends with one entry per k (run under -race in CI).
func TestNNTableConcurrent(t *testing.T) {
	fx := newFixture(t, dataset.PaperClustered(301, 6, 1407), 1024)
	m := fx.model
	m.steps = 400
	ks := []int{1, 2, 3, 5, 10, 20, 40}
	cost := make(map[int]CostEstimate)
	dist := make(map[int]float64)
	for _, k := range ks {
		cost[k], dist[k] = m.NNL(k), m.ExpectedNNDist(k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := ks[(g+i)%len(ks)]
				if got := m.NNLCached(k); got != cost[k] {
					t.Errorf("goroutine %d k=%d: NNLCached %+v, NNL %+v", g, k, got, cost[k])
				}
				if got := m.ExpectedNNDistCached(k); got != dist[k] {
					t.Errorf("goroutine %d k=%d: ExpectedNNDistCached %v, ExpectedNNDist %v", g, k, got, dist[k])
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.CachedKs(); got != len(ks) {
		t.Errorf("table holds %d entries for %d distinct k", got, len(ks))
	}
}

func TestNNDistCDFIsACDF(t *testing.T) {
	d := dataset.Uniform(800, 4, 1406)
	fx := newFixture(t, d, 1024)
	f := func(a, b float64) bool {
		bound := d.Space.Bound
		r1 := math.Abs(math.Mod(a, bound))
		r2 := math.Abs(math.Mod(b, bound))
		if r1 > r2 {
			r1, r2 = r2, r1
		}
		p1 := fx.model.NNDistCDF(3, r1)
		p2 := fx.model.NNDistCDF(3, r2)
		return p1 >= 0 && p2 <= 1 && p1 <= p2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if got := fx.model.NNDistCDF(3, d.Space.Bound); got != 1 {
		t.Fatalf("P_k at d+ = %g", got)
	}
	if got := fx.model.NNDistCDF(3, 0); got != 0 {
		t.Fatalf("P_k at 0 = %g", got)
	}
}
