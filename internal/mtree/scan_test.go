package mtree

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"mcost/internal/budget"
	"mcost/internal/metric"
	"mcost/internal/obs"
)

func scanFixture(t *testing.T, n, dim int) (*Scan, []metric.Object, *metric.Space) {
	t.Helper()
	space := metric.VectorSpace("L2", dim)
	objs := make([]metric.Object, n)
	rng := rand.New(rand.NewSource(7))
	for i := range objs {
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = rng.Float64()
		}
		objs[i] = v
	}
	s, err := NewScan(space, objs, 4096)
	if err != nil {
		t.Fatalf("NewScan: %v", err)
	}
	return s, objs, space
}

// canonical sorts a copy of baseline matches into (distance, OID) order,
// the order the scan engine promises.
func canonicalize(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].OID < out[j].OID
	})
	return out
}

func TestScanMatchesLinearBaselines(t *testing.T) {
	s, objs, space := scanFixture(t, 500, 6)
	q := objs[123]
	for _, radius := range []float64{0.1, 0.5, 1.0} {
		got, err := s.Range(q, radius, QueryOptions{})
		if err != nil {
			t.Fatalf("Range(%g): %v", radius, err)
		}
		sameMatches(t, "range", got, canonicalize(LinearScanRange(objs, space, q, radius)))
	}
	for _, k := range []int{1, 10, 100} {
		got, err := s.NN(q, k, QueryOptions{})
		if err != nil {
			t.Fatalf("NN(%d): %v", k, err)
		}
		sameMatches(t, "nn", got, LinearScanNN(objs, space, q, k))
	}
}

func TestScanCountersAndPages(t *testing.T) {
	s, objs, _ := scanFixture(t, 500, 6)
	wantPages, err := ScanPages(objs[0], len(objs), 4096)
	if err != nil {
		t.Fatalf("ScanPages: %v", err)
	}
	if s.Pages() != wantPages {
		t.Fatalf("Pages() = %d, ScanPages = %d", s.Pages(), wantPages)
	}
	tr := obs.NewTrace()
	if _, err := s.Range(objs[0], 0.5, QueryOptions{Trace: tr}); err != nil {
		t.Fatalf("Range: %v", err)
	}
	if got := s.DistanceCount(); got != int64(len(objs)) {
		t.Fatalf("DistanceCount = %d, want %d", got, len(objs))
	}
	if got := s.NodeReads(); got != int64(wantPages) {
		t.Fatalf("NodeReads = %d, want %d", got, wantPages)
	}
	if tr.TotalDists() != int64(len(objs)) || tr.TotalNodes() != int64(wantPages) {
		t.Fatalf("trace (%d nodes, %d dists), want (%d, %d)",
			tr.TotalNodes(), tr.TotalDists(), wantPages, len(objs))
	}
	s.ResetCounters()
	if s.NodeReads() != 0 || s.DistanceCount() != 0 {
		t.Fatalf("counters survive ResetCounters")
	}
}

func TestScanBudgetPartial(t *testing.T) {
	s, objs, space := scanFixture(t, 500, 6)
	q := objs[0]
	full := canonicalize(LinearScanRange(objs, space, q, 0.9))
	if len(full) < 10 {
		t.Fatalf("fixture too sparse: %d matches", len(full))
	}
	// Cap distance computations below n: the scan must stop with the
	// typed error and a valid partial (every match within radius).
	got, err := s.Range(q, 0.9,
		QueryOptions{Budget: budget.Budget{MaxDistCalcs: 100}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if len(got) == 0 || len(got) >= len(full) {
		t.Fatalf("partial has %d matches, full %d", len(got), len(full))
	}
	for _, m := range got {
		if m.Distance > 0.9 {
			t.Fatalf("partial match beyond radius: %v", m.Distance)
		}
	}

	// NN partial: best-so-far, closest first.
	nn, err := s.NN(q, 5,
		QueryOptions{Budget: budget.Budget{MaxDistCalcs: 100}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("nn: want ErrBudgetExceeded, got %v", err)
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Distance < nn[i-1].Distance {
			t.Fatalf("nn partial not sorted at %d", i)
		}
	}

	// Canceled context surfaces the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Range(q, 0.9, QueryOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestScanBatchSharesPageReads(t *testing.T) {
	s, objs, _ := scanFixture(t, 400, 6)
	qs := []metric.Object{objs[1], objs[50], objs[399]}

	s.ResetCounters()
	batch, err := s.RangeBatch(qs, 0.6, QueryOptions{})
	if err != nil {
		t.Fatalf("RangeBatch: %v", err)
	}
	if got, want := s.NodeReads(), int64(s.Pages()); got != want {
		t.Fatalf("batch node reads %d, want one pass %d", got, want)
	}
	if got, want := s.DistanceCount(), int64(len(qs)*len(objs)); got != want {
		t.Fatalf("batch dists %d, want %d", got, want)
	}
	for i, q := range qs {
		solo, err := s.Range(q, 0.6, QueryOptions{})
		if err != nil {
			t.Fatalf("Range: %v", err)
		}
		sameMatches(t, "range batch", batch[i], solo)
	}

	nnBatch, err := s.NNBatch(qs, 7, QueryOptions{})
	if err != nil {
		t.Fatalf("NNBatch: %v", err)
	}
	for i, q := range qs {
		solo, err := s.NN(q, 7, QueryOptions{})
		if err != nil {
			t.Fatalf("NN: %v", err)
		}
		sameMatches(t, "nn batch", nnBatch[i], solo)
	}
}

func TestScanInsertRemove(t *testing.T) {
	s, objs, space := scanFixture(t, 100, 4)
	extra := make(metric.Vector, 4)
	copy(extra, objs[0].(metric.Vector))
	s.Insert(extra, 100)
	if s.Size() != 101 {
		t.Fatalf("Size after insert = %d", s.Size())
	}
	// The duplicate ties on distance with objs[0]; OID order breaks it.
	nn, err := s.NN(objs[0], 2, QueryOptions{})
	if err != nil {
		t.Fatalf("NN: %v", err)
	}
	if nn[0].OID != 0 || nn[1].OID != 100 {
		t.Fatalf("tie-break: got OIDs %d, %d; want 0, 100", nn[0].OID, nn[1].OID)
	}
	if !s.Remove(100) {
		t.Fatalf("Remove(100) = false")
	}
	if s.Remove(100) {
		t.Fatalf("second Remove(100) = true")
	}
	got, err := s.Range(objs[0], space.Bound, QueryOptions{})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("%d objects after remove, want 100", len(got))
	}
}
