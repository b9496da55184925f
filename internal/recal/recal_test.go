package recal_test

import (
	"math"
	"reflect"
	"testing"

	"mcost/internal/core"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/obs"
	"mcost/internal/recal"
)

// lineSpace is a 1-D L1 space over float64 objects in [0, 10].
func lineSpace() *metric.Space {
	return &metric.Space{
		Name:  "line",
		Bound: 10,
		Distance: func(a, b metric.Object) float64 {
			return math.Abs(a.(float64) - b.(float64))
		},
	}
}

// baseHist builds a histogram whose mass sits at small distances
// (objects clustered near 0).
func baseHist(t *testing.T) *histogram.Histogram {
	t.Helper()
	samples := make([]float64, 0, 400)
	for i := 0; i < 400; i++ {
		samples = append(samples, float64(i%20)*0.05) // distances in [0, 1)
	}
	h, err := histogram.FromSamples(samples, 20, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func seedObjs(n int) []metric.Object {
	objs := make([]metric.Object, n)
	for i := range objs {
		objs[i] = float64(i%10) * 0.1 // clustered near 0
	}
	return objs
}

func newRecal(t *testing.T, cfg recal.Config) *recal.Recalibrator {
	t.Helper()
	r, err := recal.New(cfg, baseHist(t), lineSpace(), 100, seedObjs(100))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func trace(queries int64, levels ...[2]int64) *obs.Trace {
	tr := &obs.Trace{Queries: queries}
	for i, l := range levels {
		tr.Levels = append(tr.Levels, obs.LevelTrace{Level: i + 1, Nodes: l[0], Dists: l[1]})
	}
	return tr
}

func TestNewValidates(t *testing.T) {
	h := baseHist(t)
	if _, err := recal.New(recal.Config{}, nil, lineSpace(), 10, nil); err == nil {
		t.Fatal("nil base histogram must be rejected")
	}
	if _, err := recal.New(recal.Config{}, h, nil, 10, nil); err == nil {
		t.Fatal("nil space must be rejected")
	}
	if _, err := recal.New(recal.Config{}, h, lineSpace(), 0, nil); err == nil {
		t.Fatal("zero size must be rejected")
	}
}

func TestEffectiveDefaults(t *testing.T) {
	c := recal.Config{}.Effective()
	if c.Window != 64 || c.Band != 0.5 || c.SampleK != 24 || c.Reservoir != 512 || c.RefreshEvery != 128 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// Explicit values survive.
	c = recal.Config{Window: 7, Band: 0.1}.Effective()
	if c.Window != 7 || c.Band != 0.1 {
		t.Fatalf("explicit values clobbered: %+v", c)
	}
}

// TestHistogramTracksDrift: inserting objects far from the build
// cluster must move mass into high-distance bins while the build-time
// mass decays.
func TestHistogramTracksDrift(t *testing.T) {
	r := newRecal(t, recal.Config{Seed: 1})
	before, err := r.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	cdfBefore := before.CDF(1.5) // build distances are all < 1

	// Insert a stream at coordinate ~9: distances to the near-0
	// reservoir land around 9.
	for i := 0; i < 400; i++ {
		r.ObserveInsert(9.0 + float64(i%10)*0.01)
	}
	after, err := r.Histogram()
	if err != nil {
		t.Fatal(err)
	}
	cdfAfter := after.CDF(1.5)
	if cdfAfter >= cdfBefore {
		t.Fatalf("mass must shift to larger distances: CDF(1.5) %g -> %g", cdfBefore, cdfAfter)
	}
	st := r.Stats()
	if st.Inserts != 400 || st.LiveSamples == 0 {
		t.Fatalf("stats after drift: %+v", st)
	}
	if st.BaseWeight >= 1 || st.BaseWeight <= 0 {
		t.Fatalf("base weight must decay strictly within (0,1): %g", st.BaseWeight)
	}
}

func TestDeleteReversesInsertMass(t *testing.T) {
	r := newRecal(t, recal.Config{Seed: 2})
	r.ObserveInsert(5.0)
	st := r.Stats()
	if st.LiveSamples == 0 {
		t.Fatal("insert must add live samples")
	}
	r.ObserveDelete(5.0)
	st = r.Stats()
	if st.Deletes != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LiveSamples > 24 { // one insert + one delete with SampleK=24 roughly cancel
		t.Fatalf("delete must drain live mass, still %d samples", st.LiveSamples)
	}
}

// TestBiasLearnsPerLevel: when observations run consistently 2x the
// raw prediction at one level, CorrectRange must scale that level's
// contribution by ~2 while leaving an unbiased level alone.
func TestBiasLearnsPerLevel(t *testing.T) {
	r := newRecal(t, recal.Config{Window: 8, Seed: 3})
	raw := []core.CostEstimate{
		{Nodes: 10, Dists: 100}, // level 1: observed 2x
		{Nodes: 20, Dists: 200}, // level 2: observed exactly
	}
	for i := 0; i < 8; i++ {
		served := r.CorrectRange(raw)
		r.ObserveRange(raw, served, trace(1, [2]int64{20, 200}, [2]int64{20, 200}))
	}
	got := r.CorrectRange(raw)
	want := core.CostEstimate{Nodes: 10*2 + 20*1, Dists: 100*2 + 200*1}
	if math.Abs(got.Nodes-want.Nodes) > 1 || math.Abs(got.Dists-want.Dists) > 10 {
		t.Fatalf("corrected estimate %+v, want about %+v", got, want)
	}
	st := r.Stats()
	if len(st.BiasNodesPerLevel) != 2 {
		t.Fatalf("bias vector: %+v", st)
	}
	if b := st.BiasNodesPerLevel[0]; b < 1.8 || b > 2.2 {
		t.Fatalf("level-1 node bias %g, want ~2", b)
	}
	if b := st.BiasNodesPerLevel[1]; b < 0.9 || b > 1.1 {
		t.Fatalf("level-2 node bias %g, want ~1", b)
	}
}

// TestBiasClamped: a pathological window must not blow predictions up
// by more than the clamp factor 5 (or down below 0.2).
func TestBiasClamped(t *testing.T) {
	r := newRecal(t, recal.Config{Window: 4, Seed: 4})
	raw := []core.CostEstimate{{Nodes: 1, Dists: 1}}
	for i := 0; i < 4; i++ {
		r.ObserveRange(raw, raw[0], trace(1, [2]int64{1000, 1000}))
	}
	got := r.CorrectRange(raw)
	if got.Nodes > 5.01 || got.Dists > 5.01 {
		t.Fatalf("bias must clamp at 5x: %+v", got)
	}
	for i := 0; i < 4; i++ {
		r.ObserveRange(raw, raw[0], trace(1, [2]int64{0, 0}))
	}
	got = r.CorrectRange(raw)
	if got.Nodes < 0.199 || got.Dists < 0.199 {
		t.Fatalf("bias must clamp at 0.2x: %+v", got)
	}
}

// TestCorrectNNUsesAggregate: NN feedback has no per-level breakdown
// but must still train the aggregate correction.
func TestCorrectNNUsesAggregate(t *testing.T) {
	r := newRecal(t, recal.Config{Window: 8, Seed: 5})
	raw := core.CostEstimate{Nodes: 10, Dists: 50}
	for i := 0; i < 8; i++ {
		r.ObserveNN(raw, r.CorrectNN(raw), trace(1, [2]int64{30, 150}))
	}
	got := r.CorrectNN(raw)
	if got.Nodes < 25 || got.Nodes > 35 || got.Dists < 125 || got.Dists > 175 {
		t.Fatalf("aggregate NN correction %+v, want ~3x of %+v", got, raw)
	}
	// The bulk form is the same correction, price for price.
	many := []core.CostEstimate{raw, {Nodes: 1, Dists: 2}, {}}
	want := []core.CostEstimate{r.CorrectNN(many[0]), r.CorrectNN(many[1]), r.CorrectNN(many[2])}
	if r.CorrectNNs(many); !reflect.DeepEqual(many, want) {
		t.Fatalf("CorrectNNs = %+v, want %+v", many, want)
	}
}

// TestDriftAlarmEdgeTriggered: each in-band -> out-of-band crossing
// counts once; staying out does not re-fire, and recovering re-arms.
func TestDriftAlarmEdgeTriggered(t *testing.T) {
	r := newRecal(t, recal.Config{Window: 2, Band: 0.5, Seed: 6})
	inBand := core.CostEstimate{Nodes: 10, Dists: 10}
	wayOff := core.CostEstimate{Nodes: 100, Dists: 100}
	feed := func(served core.CostEstimate, n int) {
		for i := 0; i < n; i++ {
			r.ObserveNN(served, served, trace(1, [2]int64{10, 10}))
		}
	}
	feed(inBand, 2)
	if st := r.Stats(); !st.InBand || st.DriftAlarms != 0 {
		t.Fatalf("in-band start: %+v", st)
	}
	feed(wayOff, 2)
	if st := r.Stats(); st.InBand || st.DriftAlarms != 1 {
		t.Fatalf("first crossing: %+v", st)
	}
	feed(wayOff, 3) // still out: no new alarm
	if st := r.Stats(); st.DriftAlarms != 1 {
		t.Fatalf("level-triggered alarm: %+v", st)
	}
	feed(inBand, 2) // recover
	if st := r.Stats(); !st.InBand || st.DriftAlarms != 1 {
		t.Fatalf("recovery: %+v", st)
	}
	feed(wayOff, 2) // second crossing
	if st := r.Stats(); st.DriftAlarms != 2 {
		t.Fatalf("second crossing: %+v", st)
	}
}

func TestNeedRefreshCycle(t *testing.T) {
	r := newRecal(t, recal.Config{RefreshEvery: 5, Seed: 7})
	for i := 0; i < 4; i++ {
		r.ObserveInsert(float64(i))
	}
	if r.NeedRefresh() {
		t.Fatal("4 writes with RefreshEvery=5 must not request a refresh")
	}
	r.ObserveInsert(4.0)
	if !r.NeedRefresh() {
		t.Fatal("5th write must request a refresh")
	}
	r.MarkRefreshed()
	if r.NeedRefresh() {
		t.Fatal("MarkRefreshed must clear the request")
	}
	for i := 0; i < 5; i++ {
		r.ObserveDelete(float64(i))
	}
	if !r.NeedRefresh() {
		t.Fatal("deletes must count toward the refresh cadence too")
	}
}

// TestEmptyWindowIsIdentity: with no feedback, corrections must not
// change predictions.
func TestEmptyWindowIsIdentity(t *testing.T) {
	r := newRecal(t, recal.Config{Seed: 8})
	raw := []core.CostEstimate{{Nodes: 3, Dists: 30}, {Nodes: 7, Dists: 70}}
	got := r.CorrectRange(raw)
	if got.Nodes != 10 || got.Dists != 100 {
		t.Fatalf("empty-window correction must be the plain sum: %+v", got)
	}
	nn := r.CorrectNN(core.CostEstimate{Nodes: 5, Dists: 5})
	if nn.Nodes != 5 || nn.Dists != 5 {
		t.Fatalf("empty-window NN correction must be identity: %+v", nn)
	}
}
