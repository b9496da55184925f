package mcost

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"mcost/internal/advisor"
	"mcost/internal/dataset"
	"mcost/internal/recal"
)

// canonOrder sorts a copy of matches into the canonical (distance, OID)
// order every engine's sorted surface uses.
func canonOrder(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].OID < out[j].OID
	})
	return out
}

// batchSurface is Index's mode-aware batch surface.
type batchSurface interface {
	RangeBatchTraced(ctx context.Context, qs []Object, radius float64, b QueryBudget, tr *QueryTrace) ([][]Match, error)
	NNBatchTraced(ctx context.Context, qs []Object, k int, b QueryBudget, tr *QueryTrace) ([][]Match, error)
}

// rangeSets and nnSets run qs through the batch surface under the
// current engine mode, unbudgeted and untraced.
func rangeSets(t *testing.T, e batchSurface, qs []Object, radius float64) [][]Match {
	t.Helper()
	sets, err := e.RangeBatchTraced(context.Background(), qs, radius, QueryBudget{}, nil)
	if err != nil {
		t.Fatalf("RangeBatchTraced(%g): %v", radius, err)
	}
	return sets
}

func nnSets(t *testing.T, e batchSurface, qs []Object, k int) [][]Match {
	t.Helper()
	sets, err := e.NNBatchTraced(context.Background(), qs, k, QueryBudget{}, nil)
	if err != nil {
		t.Fatalf("NNBatchTraced(%d): %v", k, err)
	}
	return sets
}

func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].OID != want[i].OID || got[i].Distance != want[i].Distance {
			t.Fatalf("%s: match %d = (%d, %v), want (%d, %v)",
				label, i, got[i].OID, got[i].Distance, want[i].OID, want[i].Distance)
		}
	}
}

func TestHardnessProfilePopulated(t *testing.T) {
	space := VectorSpace("L2", 4)
	objs := randomVectors(800, 4, 3)
	ix, err := Build(space, objs, Options{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := ix.Hardness()
	if p.N != 800 {
		t.Fatalf("profile N = %d", p.N)
	}
	if p.ScanDists != 800 {
		t.Fatalf("profile ScanDists = %g", p.ScanDists)
	}
	if p.ScanNodes <= 0 {
		t.Fatalf("profile ScanNodes = %g", p.ScanNodes)
	}
	if !(p.Concentration > 0) || !(p.IntrinsicDim > 0) {
		t.Fatalf("concentration %g, intrinsic dim %g", p.Concentration, p.IntrinsicDim)
	}
	if p.Hardness() != p.IntrinsicDim {
		t.Fatalf("Hardness() = %g, IntrinsicDim = %g", p.Hardness(), p.IntrinsicDim)
	}
}

func TestSetEngineModeValidation(t *testing.T) {
	ix, err := Build(VectorSpace("L2", 3), randomVectors(100, 3, 5), Options{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.EngineMode() != EngineTree {
		t.Fatalf("default mode %q", ix.EngineMode())
	}
	if err := ix.SetEngineMode("turbo"); err == nil {
		t.Fatal("bad mode accepted")
	}
	for _, m := range []EngineMode{EngineScan, EngineAuto, EngineTree} {
		if err := ix.SetEngineMode(m); err != nil {
			t.Fatalf("SetEngineMode(%q): %v", m, err)
		}
		if ix.EngineMode() != m {
			t.Fatalf("mode %q after SetEngineMode(%q)", ix.EngineMode(), m)
		}
	}
	if _, err := ParseEngineMode("warp"); err == nil {
		t.Fatal("ParseEngineMode accepted garbage")
	}
	if m, err := ParseEngineMode(""); err != nil || m != EngineTree {
		t.Fatalf("ParseEngineMode(\"\") = %q, %v", m, err)
	}
}

// TestScanModeBitIdenticalToTree routes the priced/batched surface
// through the scan and checks the results agree with the tree's, in
// canonical order, and that pricing switches to the scan's fixed cost.
func TestScanModeBitIdenticalToTree(t *testing.T) {
	space := VectorSpace("L2", 5)
	objs := randomVectors(900, 5, 11)
	ix, err := Build(space, objs, Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs := []Object{objs[7], objs[400], Vector{0.5, 0.5, 0.5, 0.5, 0.5}}
	const radius = 0.45

	treeSets := rangeSets(t, ix, qs, radius)
	treeNN := nnSets(t, ix, qs, 9)
	if err := ix.SetEngineMode(EngineScan); err != nil {
		t.Fatal(err)
	}
	defer ix.SetEngineMode(EngineTree)

	est := ix.PriceRange(radius)
	if est.Nodes != float64(ix.Hardness().ScanNodes) || est.Dists != 900 {
		t.Fatalf("scan-mode price = %+v, profile scan cost = (%g, %g)",
			est, ix.Hardness().ScanNodes, ix.Hardness().ScanDists)
	}

	scanSets := rangeSets(t, ix, qs, radius)
	for i := range qs {
		matchesEqual(t, "range", scanSets[i], canonOrder(treeSets[i]))
	}
	scanNN := nnSets(t, ix, qs, 9)
	for i := range qs {
		matchesEqual(t, "nn", scanNN[i], treeNN[i])
	}

	// A starved budget yields the typed partial error through the same
	// surface.
	_, err = ix.RangeBatchTraced(context.Background(), qs, radius, QueryBudget{MaxDistCalcs: 10}, nil)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("starved scan returned %v", err)
	}
}

// TestAutoExecutesPlannedEngine checks that under EngineAuto the batch
// surface returns exactly what the planned engine returns when run
// directly.
func TestAutoExecutesPlannedEngine(t *testing.T) {
	space := VectorSpace("L2", 4)
	objs := randomVectors(700, 4, 17)
	ix, err := Build(space, objs, Options{Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetEngineMode(EngineAuto); err != nil {
		t.Fatal(err)
	}
	q := Vector{0.4, 0.6, 0.5, 0.5}
	for _, radius := range []float64{0.05, 0.3, space.Bound} {
		d, err := ix.PlanRange(radius)
		if err != nil {
			t.Fatalf("PlanRange(%g): %v", radius, err)
		}
		if d.Engine != advisor.EngineTree && d.Engine != advisor.EngineScan {
			t.Fatalf("decision engine %q", d.Engine)
		}
		if c := d.Predicted(); c.Nodes+c.Dists > d.PredictedTree.Nodes+d.PredictedTree.Dists ||
			c.Nodes+c.Dists > d.PredictedScan.Nodes+d.PredictedScan.Dists {
			t.Fatalf("chosen cost %+v not the cheapest of tree %+v / scan %+v",
				c, d.PredictedTree, d.PredictedScan)
		}
		direct, err := ix.Range(q, radius)
		if err != nil {
			t.Fatal(err)
		}
		if d.Engine == advisor.EngineScan {
			direct = canonOrder(direct)
		}
		matchesEqual(t, "auto range", rangeSets(t, ix, []Object{q}, radius)[0], direct)
	}

	for _, k := range []int{1, 5, 700} {
		d, err := ix.PlanNN(k)
		if err != nil {
			t.Fatalf("PlanNN(%d): %v", k, err)
		}
		direct, err := ix.NN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, "auto nn", nnSets(t, ix, []Object{q}, k)[0], direct)
		if d.Reason == "" {
			t.Fatal("empty decision reason")
		}
	}

	if _, err := ix.PlanRange(math.NaN()); !errors.Is(err, ErrBadPlanQuery) {
		t.Fatalf("NaN radius planned: %v", err)
	}
	if _, err := ix.PlanNN(0); !errors.Is(err, ErrBadPlanQuery) {
		t.Fatalf("k=0 planned: %v", err)
	}
}

// TestShardedAutoAndScanMode exercises the sharded planner surface:
// fan-out naming, scan-mode bit-identity with global OIDs, and the
// merged-histogram profile.
func TestShardedAutoAndScanMode(t *testing.T) {
	space := VectorSpace("L2", 4)
	objs := randomVectors(600, 4, 23)
	sx, err := BuildSharded(space, objs, Options{Seed: 23, Workers: 1},
		ShardOptions{Shards: 3, Assign: ShardPivot})
	if err != nil {
		t.Fatal(err)
	}
	p := sx.Hardness()
	if p.N != 600 || p.ScanDists != 600 {
		t.Fatalf("sharded profile N=%d ScanDists=%g", p.N, p.ScanDists)
	}

	if err := sx.SetEngineMode(EngineAuto); err != nil {
		t.Fatal(err)
	}
	q := Vector{0.5, 0.5, 0.5, 0.5}
	d, err := sx.PlanRange(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Engine != advisor.EngineFanout && d.Engine != advisor.EngineScan {
		t.Fatalf("sharded decision engine %q", d.Engine)
	}
	direct, err := sx.Range(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Engine == advisor.EngineScan {
		direct = canonOrder(direct)
	}
	matchesEqual(t, "sharded auto range", rangeSets(t, sx, []Object{q}, 0.3)[0], direct)

	nnDirect, err := sx.NN(q, 11)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "sharded auto nn", nnSets(t, sx, []Object{q}, 11)[0], nnDirect)

	// Scan mode over the sharded surface: canonical order, global OIDs.
	if err := sx.SetEngineMode(EngineScan); err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "sharded scan mode", rangeSets(t, sx, []Object{q}, 0.3)[0], canonOrder(direct))
	est := sx.PriceRange(0.3)
	if est.Dists != 600 {
		t.Fatalf("sharded scan price dists = %g", est.Dists)
	}
}

// TestHardnessMonotoneInHypercubeDimension walks the curse: the facade
// hardness score must grow strictly with the dimension of a uniform
// hypercube while the concentration ratio σ/μ falls.
func TestHardnessMonotoneInHypercubeDimension(t *testing.T) {
	prevHard, prevConc := -1.0, math.Inf(1)
	for _, dim := range []int{2, 8, 32} {
		ix, err := Build(VectorSpace("L2", dim), randomVectors(400, dim, 7), Options{Seed: 7, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := ix.Hardness()
		if p.Hardness() <= prevHard {
			t.Fatalf("D=%d hardness %.2f not above previous %.2f", dim, p.Hardness(), prevHard)
		}
		if p.Concentration >= prevConc {
			t.Fatalf("D=%d concentration %.4f not below previous %.4f", dim, p.Concentration, prevConc)
		}
		prevHard, prevConc = p.Hardness(), p.Concentration
	}
}

// TestInsertDeleteKeepScanInSync mutates the index and checks scan-mode
// results still agree with the tree afterwards.
func TestInsertDeleteKeepScanInSync(t *testing.T) {
	space := VectorSpace("L2", 3)
	objs := randomVectors(300, 3, 31)
	ix, err := Build(space, objs, Options{Seed: 31, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	extra := randomVectors(20, 3, 32)
	for _, o := range extra {
		if _, err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete(objs[5], 5); err != nil {
		t.Fatal(err)
	}
	q := Vector{0.5, 0.5, 0.5}
	tree, err := ix.Range(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetEngineMode(EngineScan); err != nil {
		t.Fatal(err)
	}
	scan, err := ix.RangeBatchTraced(context.Background(), []Object{q}, 0.4, QueryBudget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, "post-churn", scan[0], canonOrder(tree))
}

// TestPlanQuotesTheLiveScanPrice: a plan's scan alternative is the scan
// as it stands, not as it stood when the profile was computed. The
// profile's scan price was refreshed only by a recalibration refit on
// one tree and never on a sharded index, so after writes PlanNN's
// PredictedScan fell behind what PriceNN charges in scan mode.
func TestPlanQuotesTheLiveScanPrice(t *testing.T) {
	space := VectorSpace("L2", 3)
	objs := randomVectors(300, 3, 41)
	extra := randomVectors(150, 3, 42)
	type planner interface {
		Insert(Object) (uint64, error)
		SetEngineMode(EngineMode) error
		PlanRange(float64) (PlanDecision, error)
		PlanNN(int) (PlanDecision, error)
		PriceRange(float64) CostEstimate
		PriceNN(int) CostEstimate
	}
	ix, err := Build(space, objs, Options{Seed: 41, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(space, objs, Options{Seed: 41, Workers: 1}, ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]planner{"Index": ix, "sharded": sx} {
		for _, o := range extra {
			if _, err := p.Insert(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.SetEngineMode(EngineScan); err != nil {
			t.Fatal(err)
		}
		nn, err := p.PlanNN(5)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := nn.PredictedScan, p.PriceNN(5); got != want || want.Dists != 450 {
			t.Errorf("%s: PlanNN quotes the scan at %+v, PriceNN charges %+v (450 objects)", name, got, want)
		}
		rg, err := p.PlanRange(0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rg.PredictedScan, p.PriceRange(0.1); got != want {
			t.Errorf("%s: PlanRange quotes the scan at %+v, PriceRange charges %+v", name, got, want)
		}
	}
}

// TestPricersPrefixEqualsPriceNN: the prefix the profile walks is, price
// for price and for every k up to the dataset's size, what the same
// pricer quotes one k at a time — through the recalibrator's correction
// on one tree, through the per-shard sum on three, whether the shards
// are even (round-robin) or not (pivot).
func TestPricersPrefixEqualsPriceNN(t *testing.T) {
	space := VectorSpace("L2", 3)
	objs := randomVectors(120, 3, 43)
	pricers := map[string]*Index{}
	for name, so := range map[string]ShardOptions{
		"Index":          {Shards: 1},
		"sharded":        {Shards: 3, Assign: ShardRoundRobin},
		"sharded, pivot": {Shards: 3, Assign: ShardPivot},
	} {
		ix, err := BuildSharded(space, objs, Options{Seed: 43, Workers: 1}, so)
		if err != nil {
			t.Fatal(err)
		}
		pricers[name] = ix
	}
	check := func(suffix string) {
		t.Helper()
		for name, ix := range pricers {
			p := ix.tree()
			prefix := p.PriceNNPrefix(len(objs))
			if len(prefix) != len(objs) {
				t.Fatalf("%s%s: prefix of %d prices, want %d", name, suffix, len(prefix), len(objs))
			}
			for k := 1; k <= len(prefix); k++ {
				if got, want := prefix[k-1], p.PriceNN(k); got != want {
					t.Fatalf("%s%s: k=%d: prefix %+v, PriceNN %+v", name, suffix, k, got, want)
				}
			}
		}
	}
	check("")

	for name, ix := range pricers {
		sample := objs
		if ix.set.NumShards() > 1 {
			sample = nil
		}
		if err := ix.EnableRecalibration(recal.Config{}, sample); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := ix.NNBatchTraced(context.Background(), objs[i:i+1], 5, QueryBudget{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if raw, corrected := ix.set.Shards()[0].Model.NNL(5), ix.set.Shards()[0].PriceNN(5); raw == corrected {
			t.Fatalf("%s: recalibration left NNL(5) = %+v uncorrected; the test exercises nothing", name, raw)
		}
	}
	check(", recalibrated")
}

// TestBenchmarkDatasetProfilesPinned pins the hardness profile on the
// two dataset shapes the benchmark's tree-l2 and scan-l2 workloads
// serve, and on uniform L∞ D=4 at one and three shards, where the
// crossover k lies past half a pivot shard. The values are those a
// bisection over single prices produced, k by k before the prefix walk
// and past half the smallest shard until every k had a prefix price.
func TestBenchmarkDatasetProfilesPinned(t *testing.T) {
	linf := dataset.Uniform(2000, 4, 12).Objects
	for _, c := range []struct {
		name   string
		objs   []Object
		space  *Space
		seed   int64
		so     ShardOptions
		wantK  int
		wantR  float64
		scanNs float64
	}{
		{"clustered D=16 n=2000", dataset.PaperClustered(2000, 16, 1).Objects, VectorSpace("L2", 16), 1, ShardOptions{Shards: 1}, 489, 1.3697912655770779, 72},
		{"uniform D=64 n=10000", dataset.Uniform(10000, 64, 1).Objects, VectorSpace("L2", 64), 1, ShardOptions{Shards: 1}, 1, 0.4135943129658699, 1429},
		{"uniform Linf D=4 n=2000 S=1", linf, VectorSpace("Linf", 4), 13, ShardOptions{Shards: 1}, 716, 0.52220829483121634, 25},
		{"uniform Linf D=4 n=2000 S=3 round-robin", linf, VectorSpace("Linf", 4), 13, ShardOptions{Shards: 3, Assign: ShardRoundRobin}, 98, 0.38022154476493597, 25},
		{"uniform Linf D=4 n=2000 S=3 pivot", linf, VectorSpace("Linf", 4), 13, ShardOptions{Shards: 3, Assign: ShardPivot}, 492, 0.49620698764920235, 25},
	} {
		ix, err := BuildSharded(c.space, c.objs, Options{Seed: c.seed, Workers: 1}, c.so)
		if err != nil {
			t.Fatal(err)
		}
		p := ix.Hardness()
		if p.CrossoverK != c.wantK {
			t.Errorf("%s: CrossoverK = %d, want %d", c.name, p.CrossoverK, c.wantK)
		}
		if math.Abs(p.CrossoverRadius-c.wantR) > 1e-9 {
			t.Errorf("%s: CrossoverRadius = %.17g, want %.17g", c.name, p.CrossoverRadius, c.wantR)
		}
		if p.ScanNodes != c.scanNs || p.ScanDists != float64(len(c.objs)) {
			t.Errorf("%s: scan priced at %g+%g", c.name, p.ScanNodes, p.ScanDists)
		}
	}
}
