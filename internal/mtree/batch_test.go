package mtree

import (
	"errors"
	"testing"

	"mcost/internal/budget"
	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/obs"
	"mcost/internal/pager"
)

// identicalMatches requires bit-identical result lists: same length,
// same OIDs, same distances, same order.
func identicalMatches(a, b []Match) bool {
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

func batchFixture(t *testing.T, n int) (*Tree, *dataset.Dataset) {
	t.Helper()
	d := dataset.PaperClustered(n, 6, 4242)
	tr, err := New(Options{Space: d.Space, PageSize: 1024, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(d.Objects); err != nil {
		t.Fatal(err)
	}
	return tr, d
}

// TestBatchAmortizesNodeReads pins the acceptance criterion: at batch
// size 32, the batch paths spend at least 2x fewer node reads per query
// than the per-query loop while computing exactly the same distances
// (range) and returning identical results.
func TestBatchAmortizesNodeReads(t *testing.T) {
	tr, _ := batchFixture(t, 3000)
	queries := dataset.PaperClusteredQueries(32, 6, 4242).Queries
	opt := QueryOptions{UseParentDist: true}

	tr.ResetCounters()
	for _, q := range queries {
		if _, err := tr.Range(q, 0.25, opt); err != nil {
			t.Fatal(err)
		}
	}
	loopReads, loopDists := tr.NodeReads(), tr.DistanceCount()

	tr.ResetCounters()
	if _, err := tr.RangeBatch(queries, 0.25, opt); err != nil {
		t.Fatal(err)
	}
	batchReads, batchDists := tr.NodeReads(), tr.DistanceCount()

	if batchDists != loopDists {
		t.Errorf("range: batch dists %d != loop dists %d (must be per-query identical)", batchDists, loopDists)
	}
	if float64(loopReads) < 2*float64(batchReads) {
		t.Errorf("range: batch reads %d not 2x below loop reads %d", batchReads, loopReads)
	}

	tr.ResetCounters()
	for _, q := range queries {
		if _, err := tr.NN(q, 10, opt); err != nil {
			t.Fatal(err)
		}
	}
	nnLoopReads := tr.NodeReads()
	tr.ResetCounters()
	if _, err := tr.NNBatch(queries, 10, opt); err != nil {
		t.Fatal(err)
	}
	nnBatchReads := tr.NodeReads()
	if float64(nnLoopReads) < 2*float64(nnBatchReads) {
		t.Errorf("nn: batch reads %d not 2x below loop reads %d", nnBatchReads, nnLoopReads)
	}
}

// TestBatchBudgetPartialResults exhausts a tiny budget mid-batch: the
// typed error surfaces, and every match already accumulated is a true
// match (verified against the linear scan).
func TestBatchBudgetPartialResults(t *testing.T) {
	tr, d := batchFixture(t, 2000)
	queries := dataset.PaperClusteredQueries(16, 6, 4242).Queries
	const radius = 0.25
	opt := QueryOptions{UseParentDist: true, Budget: budget.Budget{MaxNodeReads: 25}}

	got, err := tr.RangeBatch(queries, radius, opt)
	var exceeded *budget.ExceededError
	if !errors.As(err, &exceeded) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if len(got) != len(queries) {
		t.Fatalf("partial result shape %d, want %d slots", len(got), len(queries))
	}
	for i, ms := range got {
		truth := map[uint64]float64{}
		for _, m := range LinearScanRange(d.Objects, d.Space, queries[i], radius) {
			truth[m.OID] = m.Distance
		}
		for _, m := range ms {
			td, ok := truth[m.OID]
			if !ok || td != m.Distance {
				t.Fatalf("query %d: partial match OID %d dist %g is not a true match", i, m.OID, m.Distance)
			}
		}
	}

	// NN: finished queries keep complete, correct answers; later ones
	// return their best-so-far (still true objects at true distances).
	nnOpt := QueryOptions{UseParentDist: true, Budget: budget.Budget{MaxNodeReads: 60}}
	nnGot, err := tr.NNBatch(queries, 5, nnOpt)
	if !errors.As(err, &exceeded) {
		t.Fatalf("nn err = %v, want budget exhaustion", err)
	}
	complete := 0
	for i, ms := range nnGot {
		if len(ms) == 5 {
			want, err := tr.NN(queries[i], 5, QueryOptions{UseParentDist: true})
			if err != nil {
				t.Fatal(err)
			}
			if identicalMatches(ms, want) {
				complete++
			}
		}
		for _, m := range ms {
			if d.Space.Distance(queries[i], m.Object) != m.Distance {
				t.Fatalf("query %d: reported distance %g is not the true distance", i, m.Distance)
			}
		}
	}
	if complete == 0 {
		t.Fatal("budget so tight no query completed; fixture is degenerate")
	}
}

// TestBatchFaultInjection runs batches through a faulty-but-retried
// page stack: when the batch succeeds its results are identical to the
// clean tree's, and when the fault schedule defeats the retries the
// typed error surfaces with trustworthy partial results.
func TestBatchFaultInjection(t *testing.T) {
	d := dataset.PaperClustered(800, 4, 4400)
	clean, err := New(Options{Space: d.Space, PageSize: 512, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.BulkLoad(d.Objects); err != nil {
		t.Fatal(err)
	}
	queries := dataset.PaperClusteredQueries(16, 4, 4400).Queries
	opt := QueryOptions{UseParentDist: true}
	want, err := clean.RangeBatch(queries, 0.2, opt)
	if err != nil {
		t.Fatal(err)
	}

	succeeded, failed := 0, 0
	for s := 0; s < 20; s++ {
		stack, err := pager.NewMemStack(pager.StackOptions{
			PageSize: PhysPageSize(512),
			Faults:   &pager.FaultConfig{Seed: int64(s) + 1, ReadErrorRate: 0.25},
			Retry:    pager.RetryOptions{Attempts: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(Options{Space: d.Space, PageSize: 512, Seed: 7, Pager: stack.Top, Codec: VectorCodec{Dim: 4}})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(d.Objects); err != nil {
			t.Fatal(err)
		}
		stack.Faulty.SetEnabled(true)
		got, err := tr.RangeBatch(queries, 0.2, opt)
		stack.Faulty.SetEnabled(false)
		if err != nil {
			failed++
			for i, ms := range got {
				truth := map[uint64]float64{}
				for _, m := range want[i] {
					truth[m.OID] = m.Distance
				}
				for _, m := range ms {
					if td, ok := truth[m.OID]; !ok || td != m.Distance {
						t.Fatalf("schedule %d query %d: partial match not a true match", s, i)
					}
				}
			}
			continue
		}
		succeeded++
		for i := range queries {
			if !identicalMatches(got[i], want[i]) {
				t.Fatalf("schedule %d query %d: faulty-stack batch differs from clean batch", s, i)
			}
		}
	}
	if succeeded == 0 || failed == 0 {
		t.Fatalf("fault matrix degenerate: %d succeeded, %d failed — want both outcomes exercised", succeeded, failed)
	}
}

// TestBatchValidationAndEdges covers the argument contract and empty
// shapes, which the traversal core enforces once for every node source.
func TestBatchValidationAndEdges(t *testing.T) {
	sources, d := threeSources(t, 100)
	q := d.Objects[0]
	for name, e := range sources {
		if _, err := e.RangeBatch([]metric.Object{q, nil}, 0.1, QueryOptions{}); err == nil {
			t.Errorf("%s: nil query accepted", name)
		}
		if _, err := e.RangeBatch([]metric.Object{q}, -1, QueryOptions{}); err == nil {
			t.Errorf("%s: negative radius accepted", name)
		}
		if _, err := e.NNBatch([]metric.Object{q}, 0, QueryOptions{}); err == nil {
			t.Errorf("%s: k=0 accepted", name)
		}
		if _, err := e.NNBatch([]metric.Object{nil}, 3, QueryOptions{}); err == nil {
			t.Errorf("%s: nil NN query accepted", name)
		}
		// An empty batch is no work: nothing read, nothing computed,
		// nothing traced.
		for _, qs := range [][]metric.Object{nil, {}} {
			tr := obs.NewTrace()
			nodes, dists := e.NodeReads(), e.DistanceCount()
			out, err := e.RangeBatch(qs, 0.1, QueryOptions{Trace: tr})
			if err != nil || len(out) != 0 {
				t.Errorf("%s: empty range batch: %v, %d sets", name, err, len(out))
			}
			out, err = e.NNBatch(qs, 3, QueryOptions{Trace: tr})
			if err != nil || len(out) != 0 {
				t.Errorf("%s: empty NN batch: %v, %d sets", name, err, len(out))
			}
			if e.NodeReads() != nodes || e.DistanceCount() != dists {
				t.Errorf("%s: empty batches cost %d node reads and %d distances", name,
					e.NodeReads()-nodes, e.DistanceCount()-dists)
			}
			if tr.Batches != 0 || tr.Queries != 0 {
				t.Errorf("%s: empty batches traced (%d batches, %d queries)", name, tr.Batches, tr.Queries)
			}
		}
	}
	empty, err := New(Options{Space: d.Space, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	sets, err := empty.NNBatch([]metric.Object{q}, 3, QueryOptions{})
	if err != nil || len(sets) != 1 || len(sets[0]) != 0 {
		t.Errorf("empty tree batch: %v, %+v", err, sets)
	}
}

// TestBatchTraceAccounting checks the amortized trace contract: a
// batched trace counts each node visit once per batch, distances per
// query, and Batches/Queries expose the amortization.
func TestBatchTraceAccounting(t *testing.T) {
	tr, _ := batchFixture(t, 1000)
	queries := dataset.PaperClusteredQueries(16, 6, 4242).Queries

	trace := obs.NewTrace()
	tr.ResetCounters()
	if _, err := tr.RangeBatch(queries, 0.2, QueryOptions{Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if trace.Batches != 1 || trace.Queries != int64(len(queries)) {
		t.Fatalf("trace batches=%d queries=%d, want 1 and %d", trace.Batches, trace.Queries, len(queries))
	}
	var nodes, dists int64
	for _, lv := range trace.Levels {
		nodes += lv.Nodes
		dists += lv.Dists
	}
	if nodes != tr.NodeReads() {
		t.Errorf("trace nodes %d != tree reads %d", nodes, tr.NodeReads())
	}
	if dists != tr.DistanceCount() {
		t.Errorf("trace dists %d != tree dists %d", dists, tr.DistanceCount())
	}
}
