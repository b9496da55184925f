package mtree

import (
	"errors"
	"fmt"
	"testing"

	"mcost/internal/budget"
	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/obs"
)

// Tests of the traversal core's cross-source contracts: what holds for
// the node store must hold for the frozen arena and for the scan,
// because they run the same code over different node sources.

// TestKernelDispatchByFunctionIdentity registers custom distances under
// the names the kernels are keyed by. A kernel may replace
// space.Distance only when that IS the canonical function, so the
// frozen tree and the scan must keep answering with the custom
// distance: results, trace and counters identical to the store.
func TestKernelDispatchByFunctionIdentity(t *testing.T) {
	vec := dataset.PaperClustered(400, 4, 11)
	words := dataset.Words(300, 4)
	bits := hammingDataset(300, 32, 12)
	cases := []struct {
		name    string
		space   *metric.Space
		objs    []metric.Object
		queries []metric.Object
		radius  float64
	}{
		{"L2", &metric.Space{Name: "L2", Distance: func(a, b metric.Object) float64 { return 2 * metric.L2(a, b) }, Bound: 2 * vec.Space.Bound},
			vec.Objects, dataset.PaperClusteredQueries(6, 4, 11).Queries, 0.5},
		{"edit", &metric.Space{Name: "edit", Distance: func(a, b metric.Object) float64 { return 2 * metric.Levenshtein(a, b) }, Bound: 2 * words.Space.Bound, Discrete: true},
			words.Objects, dataset.WordQueries(6, 5).Queries, 6},
		{"hamming", &metric.Space{Name: "hamming", Distance: func(a, b metric.Object) float64 { return 2 * metric.Hamming(a, b) }, Bound: 64, Discrete: true},
			bits.Objects, hammingDataset(6, 32, 13).Objects, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &dataset.Dataset{Name: c.name, Space: c.space, Objects: c.objs}
			store := buildTree(t, d, Options{PageSize: 1024})
			frozen := freezeClone(t, d)
			scan, err := NewScan(c.space, c.objs, 1024)
			if err != nil {
				t.Fatal(err)
			}
			matches := 0
			for qi, q := range c.queries {
				label := fmt.Sprintf("query %d", qi)
				st, ft := obs.NewTrace(), obs.NewTrace()
				store.ResetCounters()
				frozen.ResetCounters()
				want, err := store.Range(q, c.radius, QueryOptions{UseParentDist: true, Trace: st})
				if err != nil {
					t.Fatal(err)
				}
				got, err := frozen.Range(q, c.radius, QueryOptions{UseParentDist: true, Trace: ft})
				if err != nil {
					t.Fatal(err)
				}
				sameMatches(t, label+" range", got, want)
				matches += len(want)
				wantNN, err := store.NN(q, 5, QueryOptions{UseParentDist: true, Trace: st})
				if err != nil {
					t.Fatal(err)
				}
				gotNN, err := frozen.NN(q, 5, QueryOptions{UseParentDist: true, Trace: ft})
				if err != nil {
					t.Fatal(err)
				}
				sameMatches(t, label+" nn", gotNN, wantNN)
				if st.String() != ft.String() {
					t.Fatalf("%s: traces differ\nstore:  %s\nfrozen: %s", label, st, ft)
				}
				if store.NodeReads() != frozen.NodeReads() || store.DistanceCount() != frozen.DistanceCount() {
					t.Fatalf("%s: counters differ: store (%d, %d), frozen (%d, %d)", label,
						store.NodeReads(), store.DistanceCount(), frozen.NodeReads(), frozen.DistanceCount())
				}
				scanRange, err := scan.Range(q, c.radius, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				sameMatches(t, label+" scan range", scanRange, canonicalize(LinearScanRange(c.objs, c.space, q, c.radius)))
				scanNN, err := scan.NN(q, 5, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				sameMatches(t, label+" scan nn", scanNN, wantNN)
			}
			if matches == 0 {
				t.Fatal("no range matches: the fixture proves nothing")
			}
		})
	}
}

// queryEngine is the surface Tree and Scan share.
type queryEngine interface {
	Range(q metric.Object, radius float64, opt QueryOptions) ([]Match, error)
	NN(q metric.Object, k int, opt QueryOptions) ([]Match, error)
	RangeBatch(qs []metric.Object, radius float64, opt QueryOptions) ([][]Match, error)
	NNBatch(qs []metric.Object, k int, opt QueryOptions) ([][]Match, error)
	NodeReads() int64
	DistanceCount() int64
}

// threeSources builds the node store, the frozen arena and the scan
// over the same objects.
func threeSources(t *testing.T, n int) (map[string]queryEngine, *dataset.Dataset) {
	t.Helper()
	d := dataset.PaperClustered(n, 6, 4242)
	scan, err := NewScan(d.Space, d.Objects, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]queryEngine{
		"store": buildTree(t, d, Options{PageSize: 1024}),
		"arena": freezeClone(t, d),
		"scan":  scan,
	}, d
}

// TestStoppedQueryCountersMatchTrace stops every query shape on every
// source with a node budget and with a distance budget. Whatever the
// stop point, the engine's counters and the query's trace must have
// metered the same work, and the partial answer must be made of true
// objects at true distances.
func TestStoppedQueryCountersMatchTrace(t *testing.T) {
	sources, d := threeSources(t, 1200)
	queries := dataset.PaperClusteredQueries(8, 6, 4242).Queries
	const radius, k = 0.3, 5
	shapes := map[string]func(e queryEngine, opt QueryOptions) ([][]Match, error){
		"range": func(e queryEngine, opt QueryOptions) ([][]Match, error) {
			ms, err := e.Range(queries[0], radius, opt)
			return [][]Match{ms}, err
		},
		"nn": func(e queryEngine, opt QueryOptions) ([][]Match, error) {
			ms, err := e.NN(queries[0], k, opt)
			return [][]Match{ms}, err
		},
		"range-batch": func(e queryEngine, opt QueryOptions) ([][]Match, error) {
			return e.RangeBatch(queries, radius, opt)
		},
		"nn-batch": func(e queryEngine, opt QueryOptions) ([][]Match, error) {
			return e.NNBatch(queries, k, opt)
		},
	}
	stops := map[string]budget.Budget{
		"at-node": {MaxNodeReads: 3},
		"at-dist": {MaxDistCalcs: 37},
	}
	for src, e := range sources {
		for shape, run := range shapes {
			for stop, b := range stops {
				name := src + "/" + shape + "/" + stop
				tr := obs.NewTrace()
				nodes, dists := e.NodeReads(), e.DistanceCount()
				sets, err := run(e, QueryOptions{UseParentDist: true, Trace: tr, Budget: b})
				if !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("%s: err = %v, want a budget stop", name, err)
				}
				if got := e.NodeReads() - nodes; got != tr.TotalNodes() {
					t.Errorf("%s: %d node reads counted, %d traced", name, got, tr.TotalNodes())
				}
				if got := e.DistanceCount() - dists; got != tr.TotalDists() {
					t.Errorf("%s: %d distances counted, %d traced", name, got, tr.TotalDists())
				}
				for i, ms := range sets {
					for _, m := range ms {
						if d.Space.Distance(queries[i], d.Objects[m.OID]) != m.Distance {
							t.Fatalf("%s: query %d reports OID %d at %g, not its true distance", name, i, m.OID, m.Distance)
						}
						if (shape == "range" || shape == "range-batch") && m.Distance > radius {
							t.Fatalf("%s: query %d: partial match at %g beyond the radius", name, i, m.Distance)
						}
					}
				}
			}
		}
	}
}
