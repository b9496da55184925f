package mcost

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func randomVectors(n, dim int, seed int64) []Object {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Object, n)
	for i := range out {
		v := make(Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		out[i] = v
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, randomVectors(10, 2, 1), Options{}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := Build(VectorSpace("L2", 2), nil, Options{}); err == nil {
		t.Error("empty objects accepted")
	}
	if _, err := Build(VectorSpace("L2", 2), randomVectors(1, 2, 1), Options{}); err == nil {
		t.Error("single object accepted")
	}
}

func TestEndToEndVectors(t *testing.T) {
	space := VectorSpace("Linf", 6)
	objs := randomVectors(3000, 6, 2)
	ix, err := Build(space, objs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 3000 || ix.Height() < 2 || ix.NumNodes() < 3 {
		t.Fatalf("shape: size %d height %d nodes %d", ix.Size(), ix.Height(), ix.NumNodes())
	}
	q := Vector{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	const radius = 0.25

	got, err := ix.Range(q, radius)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against a scan.
	want := 0
	for _, o := range objs {
		if space.Distance(q, o) <= radius {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("range returned %d, scan found %d", len(got), want)
	}

	nn, err := ix.NN(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 7 {
		t.Fatalf("NN returned %d", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Distance < nn[i-1].Distance {
			t.Fatal("NN not sorted")
		}
	}

	// Predictions roughly match the measured workload.
	ix.ResetCosts()
	const trials = 50
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < trials; i++ {
		qq := make(Vector, 6)
		for j := range qq {
			qq[j] = rng.Float64()
		}
		if _, err := ix.Range(qq, radius); err != nil {
			t.Fatal(err)
		}
	}
	nodes, dists := ix.Costs()
	est := ix.PredictRange(radius)
	actNodes := float64(nodes) / trials
	actDists := float64(dists) / trials
	if est.Nodes < actNodes*0.7 {
		// The model upper-bounds the pruned search it predicts for.
		t.Fatalf("predicted %.1f nodes, measured %.1f", est.Nodes, actNodes)
	}
	if est.Dists < actDists {
		t.Fatalf("predicted %.1f dists below pruned measurement %.1f", est.Dists, actDists)
	}
	if est.Dists > actDists*4 {
		t.Fatalf("prediction %.1f wildly above measurement %.1f", est.Dists, actDists)
	}

	// Level model close to node model.
	lv := ix.PredictRangeLevel(radius)
	if math.Abs(lv.Nodes-est.Nodes)/est.Nodes > 0.5 {
		t.Fatalf("L-MCM %.1f far from N-MCM %.1f", lv.Nodes, est.Nodes)
	}

	// Selectivity: the model predicts the average over random queries
	// (the biased query model), so measure that average, not the single
	// center query above.
	var totalMatches int
	rng2 := rand.New(rand.NewSource(11))
	for i := 0; i < trials; i++ {
		qq := make(Vector, 6)
		for j := range qq {
			qq[j] = rng2.Float64()
		}
		ms, err := ix.Range(qq, radius)
		if err != nil {
			t.Fatal(err)
		}
		totalMatches += len(ms)
	}
	avgMatches := float64(totalMatches) / trials
	sel := ix.PredictSelectivity(radius)
	if sel <= 0 || math.Abs(sel-avgMatches)/math.Max(avgMatches, 1) > 0.5 {
		t.Fatalf("selectivity %.1f, measured average %.1f", sel, avgMatches)
	}

	// NN predictions positive and bounded by tree size.
	nnEst := ix.PredictNN(1)
	if nnEst.Nodes <= 0 || nnEst.Nodes > float64(ix.NumNodes()) {
		t.Fatalf("NN nodes estimate %.1f", nnEst.Nodes)
	}
	if lvl := ix.PredictNNLevel(1); lvl.Dists <= 0 {
		t.Fatalf("NN level estimate %+v", lvl)
	}

	// Expected NN distance increases with k and sits inside (0, d+).
	e1, e10 := ix.Models()[0].ExpectedNNDist(1), ix.Models()[0].ExpectedNNDist(10)
	if !(0 < e1 && e1 < e10 && e10 < space.Bound) {
		t.Fatalf("E[nn1]=%g E[nn10]=%g", e1, e10)
	}

	// F is a CDF.
	F := ix.DistanceDistribution()
	if F(0) != 0 || F(space.Bound) != 1 || F(0.3) > F(0.6) {
		t.Fatal("distance distribution is not a CDF")
	}
}

func TestEndToEndWords(t *testing.T) {
	space := EditSpace(25)
	words := []Object{}
	rng := rand.New(rand.NewSource(4))
	letters := "abcdefgh"
	seen := map[string]bool{}
	for len(words) < 800 {
		n := 3 + rng.Intn(9)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		w := string(b)
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	ix, err := Build(space, words, Options{PageSize: 1024, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Range("abcdefg", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, o := range words {
		if space.Distance("abcdefg", o) <= 2 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("edit range: %d vs %d", len(got), want)
	}
	if est := ix.PredictRange(2); est.Dists <= 0 {
		t.Fatalf("prediction %+v", est)
	}
}

func TestIncrementalBuild(t *testing.T) {
	space := VectorSpace("L2", 4)
	objs := randomVectors(600, 4, 6)
	ix, err := Build(space, objs, Options{Incremental: true, PageSize: 1024, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() != 600 {
		t.Fatalf("size %d", ix.Size())
	}
	if _, err := ix.NN(objs[0], 3); err != nil {
		t.Fatal(err)
	}
}

func TestHVFacade(t *testing.T) {
	space := VectorSpace("Linf", 10)
	objs := randomVectors(1500, 10, 8)
	res, err := HV(space, objs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.HV < 0.9 {
		t.Fatalf("HV of uniform data = %g", res.HV)
	}
}

func TestTuneNodeSize(t *testing.T) {
	space := VectorSpace("Linf", 5)
	objs := randomVectors(3000, 5, 9)
	sizes := []int{512, 2048, 8192, 32768}
	radius := math.Pow(0.01, 0.2) / 2
	best, points, err := TuneNodeSize(space, objs, sizes, radius, PaperDiskParams(), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(sizes) {
		t.Fatalf("got %d points", len(points))
	}
	found := false
	for _, s := range sizes {
		if best == s {
			found = true
		}
	}
	if !found {
		t.Fatalf("best size %d not among candidates", best)
	}
	// Predicted I/O must fall as nodes grow (the Figure 5(a) shape);
	// which size wins the combined cost depends on n.
	for i := 1; i < len(points); i++ {
		if points[i].Est.Nodes > points[i-1].Est.Nodes {
			t.Fatalf("predicted node reads rose from %.1f to %.1f as pages grew",
				points[i-1].Est.Nodes, points[i].Est.Nodes)
		}
	}
	if _, _, err := TuneNodeSize(space, objs, nil, radius, PaperDiskParams(), Options{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestPredictTotalMS(t *testing.T) {
	space := VectorSpace("Linf", 3)
	objs := randomVectors(500, 3, 10)
	ix, err := Build(space, objs, Options{PageSize: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	est := CostEstimate{Nodes: 2, Dists: 10}
	want := 5.0*10 + (10+4)*2
	if got := ix.PredictTotalMS(est, PaperDiskParams()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("total = %g, want %g", got, want)
	}
}

// shardConfigs are the shard layouts a per-shard operation is checked
// at: one tree, and three under each assignment.
var shardConfigs = []struct {
	name string
	so   ShardOptions
}{
	{"S=1", ShardOptions{Shards: 1}},
	{"S=3/pivot", ShardOptions{Shards: 3, Assign: ShardPivot}},
	{"S=3/round-robin", ShardOptions{Shards: 3, Assign: ShardRoundRobin}},
}

// oidSet returns the OIDs of ms, failing on a duplicate.
func oidSet(t *testing.T, ms []Match) map[uint64]bool {
	t.Helper()
	set := make(map[uint64]bool, len(ms))
	for _, m := range ms {
		if set[m.OID] {
			t.Fatalf("OID %d returned twice", m.OID)
		}
		set[m.OID] = true
	}
	return set
}

func TestComplexQueriesFacade(t *testing.T) {
	space := VectorSpace("Linf", 4)
	objs := randomVectors(2000, 4, 12)
	preds := []Pred{
		{Q: Vector{0.3, 0.3, 0.3, 0.3}, Radius: 0.3},
		{Q: Vector{0.6, 0.6, 0.6, 0.6}, Radius: 0.35},
	}
	// Scan reference.
	wantAnd, wantOr := map[uint64]bool{}, map[uint64]bool{}
	for i, o := range objs {
		in0 := space.Distance(preds[0].Q, o) <= preds[0].Radius
		in1 := space.Distance(preds[1].Q, o) <= preds[1].Radius
		if in0 && in1 {
			wantAnd[uint64(i)] = true
		}
		if in0 || in1 {
			wantOr[uint64(i)] = true
		}
	}
	for _, sc := range shardConfigs {
		t.Run(sc.name, func(t *testing.T) {
			ix, err := BuildSharded(space, objs, Options{Seed: 13}, sc.so)
			if err != nil {
				t.Fatal(err)
			}
			and, err := ix.RangeAnd(preds)
			if err != nil {
				t.Fatal(err)
			}
			or, err := ix.RangeOr(preds)
			if err != nil {
				t.Fatal(err)
			}
			if len(and) != len(wantAnd) || len(or) != len(wantOr) {
				t.Fatalf("AND %d/%d, OR %d/%d", len(and), len(wantAnd), len(or), len(wantOr))
			}
			for _, got := range []map[uint64]bool{oidSet(t, and), oidSet(t, or)} {
				for oid := range got {
					if !wantOr[oid] {
						t.Fatalf("OID %d matches no predicate", oid)
					}
				}
			}
			for oid := range wantAnd {
				if !oidSet(t, and)[oid] {
					t.Fatalf("AND misses OID %d", oid)
				}
			}
			radii := []float64{0.3, 0.35}
			if p := ix.PredictRangeAnd(radii); p.Nodes <= 0 || p.Nodes > ix.PredictRangeOr(radii).Nodes {
				t.Fatalf("AND prediction %+v inconsistent with OR %+v", p, ix.PredictRangeOr(radii))
			}
			sAnd := ix.PredictSelectivityAnd(radii)
			sOr := ix.PredictSelectivityOr(radii)
			if sAnd < 0 || sOr < sAnd {
				t.Fatalf("selectivities AND %.1f OR %.1f", sAnd, sOr)
			}
		})
	}
}

func TestInsertDeleteRefreshFacade(t *testing.T) {
	space := VectorSpace("Linf", 3)
	objs := randomVectors(1000, 3, 14)
	ix, err := Build(space, objs, Options{PageSize: 1024, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	oid, err := ix.Insert(Vector{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if oid != 1000 {
		t.Fatalf("new OID %d, want 1000", oid)
	}
	if ix.Size() != 1001 {
		t.Fatalf("size %d", ix.Size())
	}
	if err := ix.Delete(Vector{0.5, 0.5, 0.5}, oid); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := ix.Delete(objs[i], uint64(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if err := ix.RefreshModel(); err != nil {
		t.Fatal(err)
	}
	// After refresh, the full-radius prediction matches the shrunken tree.
	full := ix.PredictRange(space.Bound)
	if int(full.Nodes+0.5) != ix.NumNodes() {
		t.Fatalf("refreshed model predicts %.1f nodes, tree has %d", full.Nodes, ix.NumNodes())
	}
	if int(full.Dists) > 701+ix.NumNodes()*2 {
		t.Fatalf("refreshed dists %.0f too high for 700 objects", full.Dists)
	}
}

func TestSaveLoadModelFacade(t *testing.T) {
	space := VectorSpace("Linf", 5)
	objs := randomVectors(2000, 5, 16)
	ix, err := Build(space, objs, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Models()[0].Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The standalone model predicts identically to the live index.
	for _, r := range []float64{0.1, 0.3} {
		a, b := ix.PredictRange(r), m.RangeN(r)
		if math.Abs(a.Nodes-b.Nodes) > 1e-9 || math.Abs(a.Dists-b.Dists) > 1e-9 {
			t.Fatalf("r=%g: index %+v, loaded model %+v", r, a, b)
		}
	}
}

func TestExplainRange(t *testing.T) {
	space := VectorSpace("Linf", 4)
	objs := randomVectors(2000, 4, 21)
	q := Vector{0.4, 0.4, 0.4, 0.4}
	for _, sc := range shardConfigs {
		t.Run(sc.name, func(t *testing.T) {
			ix, err := BuildSharded(space, objs, Options{PageSize: 1024, Seed: 22}, sc.so)
			if err != nil {
				t.Fatal(err)
			}
			matches, levels, err := ix.ExplainRange(q, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if len(levels) != ix.Height() {
				t.Fatalf("explain has %d levels, height %d", len(levels), ix.Height())
			}
			want, err := ix.Range(q, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			// Both concatenate in shard order and DFS order within a shard.
			if len(matches) != len(want) {
				t.Fatalf("explain found %d matches, Range %d", len(matches), len(want))
			}
			for i := range want {
				if matches[i].OID != want[i].OID || matches[i].Distance != want[i].Distance {
					t.Fatalf("match %d: explain %+v, Range %+v", i, matches[i], want[i])
				}
			}
			var actTotal int
			for _, l := range levels {
				if l.PredNodes <= 0 || l.PredDists <= 0 {
					t.Fatalf("level %d: empty prediction", l.Level)
				}
				actTotal += l.ActNodes
			}
			if actTotal <= 0 {
				t.Fatal("no measured accesses")
			}
			// Every shard's root is read exactly once.
			if levels[0].ActNodes != ix.NumShards() {
				t.Fatalf("root level read %d times over %d shards", levels[0].ActNodes, ix.NumShards())
			}
		})
	}
}

func TestPlanIndexAgainstBuiltIndex(t *testing.T) {
	space := VectorSpace("Linf", 6)
	objs := randomVectors(6000, 6, 23)
	// Plan from a 1500-object sample...
	plan, err := PlanIndex(space, objs[:1500], len(objs), Options{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	// ...then actually build and compare.
	ix, err := Build(space, objs, Options{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Height() != ix.Height() {
		t.Errorf("planned height %d, built %d", plan.Height(), ix.Height())
	}
	if p, a := plan.NumNodes(), ix.NumNodes(); math.Abs(float64(p-a))/float64(a) > 0.5 {
		t.Errorf("planned %d nodes, built %d", p, a)
	}
	const radius = 0.2
	planned := plan.PredictRange(radius)
	fitted := ix.PredictRange(radius)
	if planned.Dists < fitted.Dists/2.5 || planned.Dists > fitted.Dists*2.5 {
		t.Errorf("planned dists %.1f vs fitted model %.1f", planned.Dists, fitted.Dists)
	}
	if nn := plan.PredictNN(5); nn.Nodes <= 0 || nn.Dists <= 0 {
		t.Errorf("planned NN %+v", nn)
	}
}

func TestPlanIndexValidation(t *testing.T) {
	space := VectorSpace("L2", 2)
	objs := randomVectors(10, 2, 25)
	if _, err := PlanIndex(nil, objs, 100, Options{}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := PlanIndex(space, objs[:1], 100, Options{}); err == nil {
		t.Error("tiny sample accepted")
	}
	if _, err := PlanIndex(space, objs, 1, Options{}); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestNNApproxRecallAndSavings(t *testing.T) {
	space := VectorSpace("Linf", 8)
	objs := randomVectors(5000, 8, 29)
	queries := randomVectors(60, 8, 31)
	const k = 10
	for _, sc := range shardConfigs {
		t.Run(sc.name, func(t *testing.T) {
			ix, err := BuildSharded(space, objs, Options{Seed: 30}, sc.so)
			if err != nil {
				t.Fatal(err)
			}
			ix.ResetCosts()
			exact := make([][]Match, len(queries))
			for i, q := range queries {
				exact[i], err = ix.NN(q, k)
				if err != nil {
					t.Fatal(err)
				}
			}
			_, exactDists := ix.Costs()

			ix.ResetCosts()
			var found, total int
			for i, q := range queries {
				approx, err := ix.NNApprox(q, k, 0.95)
				if err != nil {
					t.Fatal(err)
				}
				want := oidSet(t, exact[i])
				for _, m := range approx {
					if want[m.OID] {
						found++
					}
				}
				total += len(exact[i])
			}
			_, approxDists := ix.Costs()

			recall := float64(found) / float64(total)
			t.Logf("recall %.3f; distances %d approximate, %d exact", recall, approxDists, exactDists)
			if recall < 0.8 {
				t.Fatalf("recall %.2f below 0.8 at 95%% confidence", recall)
			}
			if approxDists >= exactDists {
				t.Fatalf("approximate search cost %d not below exact %d", approxDists, exactDists)
			}
			// Confidence 1 degrades to exact.
			for qi, q := range queries {
				full, err := ix.NNApprox(q, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(full) != len(exact[qi]) {
					t.Fatalf("query %d: confidence=1 found %d, NN %d", qi, len(full), len(exact[qi]))
				}
				for i := range full {
					if full[i].OID != exact[qi][i].OID || full[i].Distance != exact[qi][i].Distance {
						t.Fatalf("query %d confidence=1 rank %d: %+v vs %+v", qi, i, full[i], exact[qi][i])
					}
				}
			}
		})
	}
}

func TestIndexStats(t *testing.T) {
	space := VectorSpace("Linf", 4)
	objs := randomVectors(1500, 4, 34)
	ix, err := Build(space, objs, Options{PageSize: 1024, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Objects != 1500 || st.Height != ix.Height() || st.Nodes != ix.NumNodes() {
		t.Fatalf("stats %+v disagree with index", st)
	}
	if st.LeafNodes <= 0 || st.AvgLeafEntries <= 0 {
		t.Fatalf("leaf stats %+v", st)
	}
	if st.AvgLeafRadius <= 0 || st.MaxLeafRadius < st.AvgLeafRadius {
		t.Fatalf("radius stats %+v", st)
	}
	if len(st.LevelNodes) != st.Height || st.LevelNodes[0] != 1 {
		t.Fatalf("level nodes %v", st.LevelNodes)
	}
	sum := 0
	for _, c := range st.LevelNodes {
		sum += c
	}
	if sum != st.Nodes {
		t.Fatalf("level sums %d != nodes %d", sum, st.Nodes)
	}
}

// TestBuildStagesAccountForTheBuild: every stage a build ran is timed,
// and on a single index the stages are disjoint parts of the build.
func TestBuildStagesAccountForTheBuild(t *testing.T) {
	space := VectorSpace("L2", 4)
	objs := randomVectors(600, 4, 51)
	opt := Options{Seed: 51, Workers: 1, Arena: ArenaOptions{Enabled: true}}
	began := time.Now()
	ix, err := Build(space, objs, opt)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(began)
	st := ix.BuildStages()
	for name, d := range map[string]time.Duration{"bulkload": st.Bulkload, "estimate": st.Estimate, "model": st.Model, "profile": st.Profile, "freeze": st.Freeze} {
		if d <= 0 {
			t.Errorf("stage %s timed at %v", name, d)
		}
	}
	if sum := st.Bulkload + st.Estimate + st.Model + st.Profile + st.Freeze; sum > elapsed {
		t.Errorf("stages sum to %v, Build took %v", sum, elapsed)
	}
	if s := st.String(); !strings.Contains(s, "profile") || !strings.Contains(s, " ms") {
		t.Errorf("String() = %q", s)
	}

	plain, err := Build(space, objs, Options{Seed: 51, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := plain.BuildStages().Freeze; d != 0 {
		t.Errorf("no arena, freeze timed at %v", d)
	}

	sx, err := BuildSharded(space, objs, opt, ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	ss := sx.BuildStages()
	for name, d := range map[string]time.Duration{"bulkload": ss.Bulkload, "estimate": ss.Estimate, "model": ss.Model, "profile": ss.Profile, "freeze": ss.Freeze} {
		if d <= 0 {
			t.Errorf("sharded stage %s timed at %v", name, d)
		}
	}
}
