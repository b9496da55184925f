package main

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"mcost/internal/metric"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {1, 1}} {
		if got := percentile(append([]float64(nil), vals...), c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("an empty sample must yield NaN, not a fast-looking zero")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
}

// Values checked against Python: statistics.quantiles(v, n=4).
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{10, 12, 11, 15, 9, 14, 13, 10.5, 12.5, 11.5}
	// quantiles -> [10.375, 11.75, 13.25]; median 11.75
	want := (13.25 - 10.375) / 11.75
	if got := quartileSpread(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %.12f, want %.12f", got, want)
	}
	if !math.IsNaN(quartileSpread([]float64{1})) {
		t.Error("one value has no spread")
	}
}

func TestWindowsCutTheClosedLoopByAnswerTime(t *testing.T) {
	at := func(s float64) result { return result{ended: time.Duration(s * float64(time.Second))} }
	// A loop of 6 s that began at 10 s: three windows of 2 s.
	rep := &liveReport{closedStart: 10 * time.Second, closedWindow: 6,
		closed: []result{at(10.1), at(11.9), at(12), at(15.99), at(13), at(16.01)}}
	windows, each := windowsOf(rep)
	if each != 2 || len(windows) != 3 {
		t.Fatalf("%d windows of %g s, want 3 of 2 s", len(windows), each)
	}
	for i, want := range []int{2, 2, 1} {
		if len(windows[i]) != want {
			t.Errorf("window %d holds %d ops, want %d", i, len(windows[i]), want)
		}
	}
	// 16.01 was answered while the loop drained: it is in no window.
	rep.closedWindow = 0.5
	if windows, each := windowsOf(rep); len(windows) != 1 || each != 0.5 {
		t.Errorf("a loop shorter than a window must be one window, got %d of %g s", len(windows), each)
	}
}

func TestPoissonScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := poissonSchedule(7, 200, 5), poissonSchedule(7, 200, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 200, 5)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if !sort.Float64sAreSorted(a) || a[0] < 0 || a[len(a)-1] >= 5 {
		t.Fatal("due times must ascend inside the window")
	}
	// 1000 expected arrivals, standard deviation about 32.
	if len(a) < 850 || len(a) > 1150 {
		t.Errorf("%d arrivals at 200/s over 5s", len(a))
	}
}

func TestZipfStreamFavoursTheHeadOfThePool(t *testing.T) {
	w, err := workloadByName("zipf-cache")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []int {
		s := newOpStream(w, seed, 0)
		idx := make([]int, 20000)
		for i := range idx {
			idx[i] = s.next().index
		}
		return idx
	}
	a := draw(3)
	if !reflect.DeepEqual(a, draw(3)) {
		t.Fatal("the same seed gave two op streams")
	}
	counts := make([]int, poolSize)
	head := 0
	for _, i := range a {
		if i < 0 || i >= poolSize {
			t.Fatalf("index %d outside the pool", i)
		}
		counts[i]++
		if i < 1024 {
			head++
		}
	}
	// P(rank k) is proportional to (10+k)^-1.4: rank 0 holds about 4 %
	// of the mass and the shares fall with rank.
	if share := float64(counts[0]) / float64(len(a)); share < 0.03 || share > 0.06 {
		t.Errorf("rank 0 drew %.3f of the ops", share)
	}
	if !(counts[0] > counts[5] && counts[5] > counts[20] && counts[20] > counts[100]) {
		t.Errorf("draw counts do not fall with rank: %v", counts[:21])
	}
	// The hot set fits the 1024-entry cache and the tail does not vanish.
	if share := float64(head) / float64(len(a)); share < 0.90 || share > 0.99 {
		t.Errorf("the first 1024 ranks drew %.3f of the ops", share)
	}
}

func TestOpMixShares(t *testing.T) {
	w, err := workloadByName("churn")
	if err != nil {
		t.Fatal(err)
	}
	s := newOpStream(w, 1, 0)
	n := map[opKind]int{}
	oracle := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		o := s.next()
		n[o.kind]++
		if o.oracle {
			oracle++
		}
	}
	within := func(name string, got int, want float64) {
		if share := float64(got) / draws; math.Abs(share-want) > 0.01 {
			t.Errorf("%s share %.3f, want %.2f", name, share, want)
		}
	}
	within("insert", n[opInsert], 0.10)
	within("delete", n[opDelete], 0.10)
	within("nn", n[opNN], 0.80*0.20)
	within("range", n[opRange], 0.80*0.80)
	within("oracle", oracle, 0.80*oracleShare)
}

// The oracle on a tiny line: objects at 0, 1, 2, ..., queries at 0.
func lineOracle(n int) *oracle {
	in := &inputs{space: metric.VectorSpace("L2", 1), pool: []metric.Object{metric.Vector{0}}}
	for i := 0; i < n; i++ {
		in.objects = append(in.objects, metric.Vector{float64(i)})
	}
	return &oracle{w: workload{radius: 2.5}, in: in, writes: newWriteLog()}
}

func matchesAt(pairs ...float64) []wireMatch {
	var out []wireMatch
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, wireMatch{OID: uint64(pairs[i]), Distance: pairs[i+1]})
	}
	return out
}

func TestOracleComparesOIDForOID(t *testing.T) {
	or := lineOracle(20)
	read := func(ms []wireMatch) *result {
		return &result{op: op{kind: opRange, oracle: true}, began: 10, ended: 20, matches: ms}
	}
	// Traversal order is accepted; the set must be exact.
	if err := or.verify(read(matchesAt(2, 2, 0, 0, 1, 1))); err != nil {
		t.Errorf("a right answer in traversal order: %v", err)
	}
	if err := or.verify(read(matchesAt(0, 0, 1, 1))); err == nil {
		t.Error("a missing match passed")
	}
	if err := or.verify(read(matchesAt(0, 0, 1, 1, 3, 2))); err == nil {
		t.Error("a wrong OID passed")
	}
	nn := &result{op: op{kind: opNN, oracle: true}, began: 10, ended: 20,
		matches: matchesAt(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9)}
	if err := or.verify(nn); err != nil {
		t.Errorf("the ten nearest: %v", err)
	}
}

// Under churn an answer must hold every insert acknowledged before the
// read began and not deleted until it ended, may hold one whose write
// overlapped the read, and must not hold one deleted before it began.
func TestOracleTracksAcknowledgedWrites(t *testing.T) {
	or := lineOracle(20)
	at := func(x float64) metric.Object { return metric.Vector{x} }
	or.writes.inserted(100, at(0.5), 1, 2)   // live for the whole read
	or.writes.inserted(101, at(1.5), 12, 30) // insert overlaps the read
	or.writes.inserted(102, at(2.2), 1, 2)
	gone := or.writes.popForDelete(3) // 102, deleted before the read
	or.writes.deleted(gone, 4)

	read := func(ms []wireMatch) *result {
		return &result{op: op{kind: opRange, oracle: true}, began: 10, ended: 20, matches: ms}
	}
	base := matchesAt(0, 0, 1, 1, 2, 2)
	with := func(extra ...float64) []wireMatch {
		return append(append([]wireMatch(nil), base...), matchesAt(extra...)...)
	}
	if err := or.verify(read(with(100, 0.5))); err != nil {
		t.Errorf("the certain insert alone: %v", err)
	}
	if err := or.verify(read(with(100, 0.5, 101, 1.5))); err != nil {
		t.Errorf("with the overlapping insert: %v", err)
	}
	if err := or.verify(read(base)); err == nil {
		t.Error("an answer missing an acknowledged insert passed")
	}
	if err := or.verify(read(with(100, 0.5, 102, 2.2))); err == nil {
		t.Error("an answer holding a deleted object passed")
	}
	if err := or.verify(read(with(100, 0.5, 999, 1))); err == nil {
		t.Error("an answer holding an unknown OID passed")
	}
}

func TestCheckAnswerRejectsBrokenAnswers(t *testing.T) {
	space := metric.VectorSpace("L2", 1)
	w := workload{radius: 2.5}
	q := metric.Vector{0}
	m := func(oid uint64, x float64) wireMatch {
		return wireMatch{OID: oid, Distance: x, Object: metric.Vector{x}}
	}
	ok := &wireResponse{Matches: []wireMatch{m(2, 2), m(0, 0)}}
	if err := checkAnswer(space, w, op{kind: opRange}, q, ok); err != nil {
		t.Errorf("a valid range answer: %v", err)
	}
	for name, resp := range map[string]*wireResponse{
		"partial":        {Partial: true},
		"degraded node":  {Degraded: []byte(`"budget_exceeded"`)},
		"degraded route": {Degraded: []byte(`true`)},
		"outside radius": {Matches: []wireMatch{m(3, 3)}},
		"wrong distance": {Matches: []wireMatch{{OID: 1, Distance: 1, Object: metric.Vector{2}}}},
	} {
		if err := checkAnswer(space, w, op{kind: opRange}, q, resp); err == nil {
			t.Errorf("%s answer passed", name)
		}
	}
	var ten []wireMatch
	for i := 0; i < nnK; i++ {
		ten = append(ten, m(uint64(i), float64(i)))
	}
	if err := checkAnswer(space, w, op{kind: opNN}, q, &wireResponse{Matches: ten}); err != nil {
		t.Errorf("a valid k-NN answer: %v", err)
	}
	if err := checkAnswer(space, w, op{kind: opNN}, q, &wireResponse{Matches: ten[:9]}); err == nil {
		t.Error("a k-NN answer of nine passed")
	}
	ten[3], ten[4] = ten[4], ten[3]
	if err := checkAnswer(space, w, op{kind: opNN}, q, &wireResponse{Matches: ten}); err == nil {
		t.Error("a k-NN answer out of order passed")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Req: 0, Name: "range", Parent: -1, StartUS: 0, EndUS: 100},
		{Req: 0, Name: "decode", Parent: 0, StartUS: 5, EndUS: 25},
		{Req: 0, Name: "exec", Parent: 0, StartUS: 30, EndUS: 90},
	}
	if got, want := selfTimes(spans), []float64{20, 20, 60}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := manifestMetric{Name: "range_p50_ms", Better: "lower", Bound: 0.10}
	higher := manifestMetric{Name: "qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		m    manifestMetric
		b    []float64
		want string
	}{
		{lower, scaled(1.05), "ok"},
		{lower, scaled(1.20), "worse"},
		{lower, scaled(0.50), "ok"},
		{higher, scaled(0.80), "worse"},
		{higher, scaled(1.50), "ok"},
		{lower, []float64{60, 100, 140, 100, 100}, "unresolved (spread > bound)"},
	} {
		if _, got := verdict(c.m, steady, c.b); got != c.want {
			t.Errorf("%s %v: verdict %q, want %q", c.m.Name, c.b, got, c.want)
		}
	}
}

// TestSmoke boots real servers on a tenth of the benchmark's scale and
// checks that both modes report exactly the metrics BENCHMARK.json
// names, with no failed op and a working oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	e, err := findEnv()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer killChildren()
	if err := e.buildServers(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, mw := range m.Workloads {
		if i < len(workloads) && mw.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, mw.Name, workloads[i].name)
		}
	}
	names := func(ms []manifestMetric) map[string]string {
		out := map[string]string{}
		for _, mm := range ms {
			out[mm.Name] = mm.Unit
		}
		return out
	}
	check := func(r *runResult, want map[string]string) {
		t.Helper()
		if !r.Correct || r.Failed != 0 || r.OracleChecked == 0 {
			t.Errorf("%s: correct=%v failed=%d oracle_checked=%d %v", r.Workload, r.Correct, r.Failed, r.OracleChecked, r.FirstFailures)
		}
		for name, unit := range want {
			got, ok := r.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s of BENCHMARK.json is not reported", r.Workload, name)
			case got.Unit != unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", r.Workload, name, got.Unit, unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s: %s = %g", r.Workload, name, got.Value)
			}
		}
		for name := range r.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: metric %s is reported but not in BENCHMARK.json", r.Workload, name)
			}
		}
	}
	for _, name := range []string{"tree-l2", "cluster"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w.n = 1000
		r, err := e.endToEnd(ctx, w, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		check(r, names(m.EndToEnd))
	}
	w, _ := workloadByName("cluster")
	w.n = 1000
	r, err := e.perLayer(ctx, w, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	check(r, names(m.PerLayer))
}
