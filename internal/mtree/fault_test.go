package mtree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mcost/internal/budget"
	"mcost/internal/dataset"
	"mcost/internal/obs"
	"mcost/internal/pager"
)

// clonePagesInto copies every allocated page of src into dst (which must
// be empty and have the same page size), giving each fault schedule a
// pristine private copy of the tree's storage.
func clonePagesInto(t *testing.T, dst *pager.Mem, src *pager.Mem) {
	t.Helper()
	for i := 0; i < src.NumPages(); i++ {
		id, err := dst.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		data, err := src.Read(pager.PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Write(id, data); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptPageDetected(t *testing.T) {
	d := dataset.Uniform(300, 3, 9)
	reg := obs.NewRegistry()
	pg, err := pager.NewMem(PhysPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Space: d.Space, PageSize: 512, Pager: pg, Codec: VectorCodec{Dim: 3}, Metrics: reg}
	tr, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(d.Objects); err != nil {
		t.Fatal(err)
	}
	q := d.Objects[0]
	if _, err := tr.Range(q, 0.3, QueryOptions{}); err != nil {
		t.Fatalf("clean query failed: %v", err)
	}

	// Flip one at-rest bit in the root page: every query starts there.
	if err := pager.FlipStoredBit(pg, tr.root, 77); err != nil {
		t.Fatal(err)
	}
	_, err = tr.Range(q, 0.3, QueryOptions{})
	if !errors.Is(err, pager.ErrCorruptPage) {
		t.Fatalf("got %v, want ErrCorruptPage", err)
	}
	var cp *pager.CorruptPageError
	if !errors.As(err, &cp) || cp.ID != tr.root {
		t.Errorf("corrupt page detail = %+v, want ID %d", cp, tr.root)
	}
	if v := reg.Counter("mtree.corrupt_pages").Value(); v < 1 {
		t.Errorf("mtree.corrupt_pages = %d, want >= 1", v)
	}
	// NN hits the same wall with the same typed error.
	if _, err := tr.NN(q, 3, QueryOptions{}); !errors.Is(err, pager.ErrCorruptPage) {
		t.Errorf("NN: got %v, want ErrCorruptPage", err)
	}
}

// cancelAfter cancels a context during the n-th page read, simulating a
// caller giving up mid-traversal.
type cancelAfter struct {
	pager.Pager
	n      int
	reads  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(id pager.PageID) ([]byte, error) {
	c.reads++
	if c.reads == c.n {
		c.cancel()
	}
	return c.Pager.Read(id)
}

func TestQueryCancellationMidTraversal(t *testing.T) {
	d := dataset.Uniform(600, 3, 10)
	base, err := pager.NewMem(PhysPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrap := &cancelAfter{Pager: base, n: 4, cancel: cancel}
	opt := Options{Space: d.Space, PageSize: 512, Pager: wrap, Codec: VectorCodec{Dim: 3}}
	tr, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	wrap.n = 1 << 30 // never cancel during the build
	if err := tr.BulkLoad(d.Objects); err != nil {
		t.Fatal(err)
	}
	q := d.Objects[1]
	want, err := tr.Range(q, 0.5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Arm the cancellation 4 reads into the next query.
	wrap.reads = 0
	wrap.n = 4
	partial, err := tr.Range(q, 0.5, QueryOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The traversal must stop within one fetch of the cancellation.
	if wrap.reads > wrap.n {
		t.Errorf("made %d reads after cancelling at read %d", wrap.reads-wrap.n, wrap.n)
	}
	if len(partial) >= len(want) {
		t.Errorf("cancelled query returned %d matches, full query %d — nothing was cut short", len(partial), len(want))
	}
	// Every partial match is a true match.
	wantDist := map[uint64]float64{}
	for _, m := range want {
		wantDist[m.OID] = m.Distance
	}
	for _, m := range partial {
		if dd, ok := wantDist[m.OID]; !ok || dd != m.Distance {
			t.Errorf("partial match %v not in the full result set", m)
		}
	}

	// The tree and pager stay fully usable afterwards.
	wrap.n = 1 << 30
	got, err := tr.Range(q, 0.5, QueryOptions{})
	if err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	if !sameOIDs(got, want) {
		t.Error("post-cancellation query returned wrong results")
	}
}

func TestBudgetPartialResults(t *testing.T) {
	d := dataset.Uniform(800, 4, 11)
	tr := buildTree(t, d, Options{PageSize: 512})
	q := d.Objects[2]
	full, err := tr.Range(q, 0.6, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fullDist := map[uint64]float64{}
	for _, m := range full {
		fullDist[m.OID] = m.Distance
	}

	qb := QueryBudget{MaxNodeReads: 5}
	partial, err := tr.Range(q, 0.6, QueryOptions{Budget: qb})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	var ex *budget.ExceededError
	if !errors.As(err, &ex) || ex.NodeReads != 5 {
		t.Errorf("exceeded detail = %+v, want NodeReads 5", ex)
	}
	for _, m := range partial {
		if dd, ok := fullDist[m.OID]; !ok || dd != m.Distance {
			t.Errorf("budget partial %v not in the full result set", m)
		}
	}

	// NN partials: true objects at true distances, sorted ascending.
	nn, err := tr.NN(q, 10, QueryOptions{Budget: QueryBudget{MaxDistCalcs: 40}})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("NN: got %v, want ErrBudgetExceeded", err)
	}
	for i, m := range nn {
		if i > 0 && nn[i-1].Distance > m.Distance {
			t.Error("NN partial not sorted by distance")
		}
		obj, ok := tr.objectForOID(m.OID)
		if !ok {
			t.Fatalf("NN partial OID %d not in tree", m.OID)
		}
		if got := d.Space.Distance(q, obj); got != m.Distance {
			t.Errorf("NN partial OID %d distance %v, true %v", m.OID, m.Distance, got)
		}
	}
}

// TestFaultMatrix is the hardening sweep: one reference tree, >= 1000
// deterministic fault schedules over private copies of its pages, a
// fixed query workload per schedule. Contract: every query either
// returns exactly the fault-free results or a typed error (with valid
// partial results) — never a panic, never silently wrong data.
func TestFaultMatrix(t *testing.T) {
	schedules := 1000
	if testing.Short() {
		schedules = 150
	}
	d := dataset.Uniform(400, 3, 12)
	clean, err := pager.NewMem(PhysPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Space: d.Space, PageSize: 512, Pager: clean, Codec: VectorCodec{Dim: 3}, Seed: 12}
	ref, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.BulkLoad(d.Objects); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ref.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	queries := d.Sample(rng, 3)
	const radius = 0.4
	const k = 5
	type refResult struct {
		rangeMs []Match
		nnMs    []Match
		inRange map[uint64]float64
	}
	refs := make([]refResult, len(queries))
	for i, q := range queries {
		rm, err := ref.Range(q, radius, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		nm, err := ref.NN(q, k, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = refResult{rangeMs: rm, nnMs: nm, inRange: map[uint64]float64{}}
		for _, m := range rm {
			refs[i].inRange[m.OID] = m.Distance
		}
	}

	typedOK := func(err error) bool {
		return errors.Is(err, pager.ErrExhausted) ||
			errors.Is(err, pager.ErrCorruptPage) ||
			errors.Is(err, ErrBudgetExceeded)
	}
	sameMatches := func(a, b []Match) bool {
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

	readRates := []float64{0, 0.05, 0.3, 0.6}
	corruptRates := []float64{0, 0, 0.05}
	numPages := clean.NumPages()
	physBits := PhysPageSize(512) * 8

	var fullOK, degraded, hardErr int
	for s := 0; s < schedules; s++ {
		s := s
		t.Run(fmt.Sprintf("schedule-%04d", s), func(t *testing.T) {
			cfg := pager.FaultConfig{
				Seed:            int64(s) + 1,
				ReadErrorRate:   readRates[s%len(readRates)],
				ReadCorruptRate: corruptRates[s%len(corruptRates)],
			}
			cache := 0
			if s%2 == 1 {
				cache = 8
			}
			stack, err := pager.NewMemStack(pager.StackOptions{
				PageSize:   PhysPageSize(512),
				CachePages: cache,
				Faults:     &cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			clonePagesInto(t, stack.Base, clean)
			if s%5 == 0 {
				// At-rest corruption on top of the transient schedule.
				id := pager.PageID(s / 5 % numPages)
				if err := pager.FlipStoredBit(stack.Base, id, (s*13)%physBits); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := Restore(bytes.NewReader(snap.Bytes()), Options{
				Space: d.Space, Pager: stack.Top, Codec: VectorCodec{Dim: 3},
			})
			if err != nil {
				t.Fatalf("Restore through the fault stack: %v", err)
			}
			var qb QueryBudget
			if s%7 == 0 {
				qb = QueryBudget{MaxNodeReads: 6, MaxDistCalcs: 200}
			}
			for i, q := range queries {
				got, err := tr.Range(q, radius, QueryOptions{Budget: qb})
				switch {
				case err == nil:
					fullOK++
					if !sameMatches(got, refs[i].rangeMs) {
						t.Fatalf("query %d: clean completion with wrong results", i)
					}
				case typedOK(err):
					if errors.Is(err, ErrBudgetExceeded) {
						degraded++
					} else {
						hardErr++
					}
					for _, m := range got {
						if dd, ok := refs[i].inRange[m.OID]; !ok || dd != m.Distance {
							t.Fatalf("query %d: partial result %v is not a true match (err %v)", i, m, err)
						}
					}
				default:
					t.Fatalf("query %d: untyped error %v", i, err)
				}

				nn, err := tr.NN(q, k, QueryOptions{Budget: qb})
				switch {
				case err == nil:
					if !sameMatches(nn, refs[i].nnMs) {
						t.Fatalf("query %d: clean NN with wrong results", i)
					}
				case typedOK(err):
					for j, m := range nn {
						if j > 0 && nn[j-1].Distance > m.Distance {
							t.Fatalf("query %d: NN partial unsorted (err %v)", i, err)
						}
						obj, ok := ref.objectForOID(m.OID)
						if !ok {
							t.Fatalf("query %d: NN partial OID %d not in tree", i, m.OID)
						}
						if d.Space.Distance(q, obj) != m.Distance {
							t.Fatalf("query %d: NN partial OID %d at wrong distance", i, m.OID)
						}
					}
				default:
					t.Fatalf("query %d: untyped NN error %v", i, err)
				}
			}
		})
	}
	t.Logf("matrix: %d clean, %d budget-degraded, %d hard typed errors over %d schedules",
		fullOK, degraded, hardErr, schedules)
	if fullOK == 0 {
		t.Error("no schedule completed cleanly — rates too hot to prove equivalence")
	}
	if hardErr == 0 {
		t.Error("no schedule produced a typed storage error — rates too cold to prove the error path")
	}
}

// TestInsertUnderTransientWriteFaults: inserts retried through write and
// torn-write faults land intact — the rebuilt pages verify and queries
// agree with an untouched in-memory twin.
func TestInsertUnderTransientWriteFaults(t *testing.T) {
	d := dataset.Uniform(300, 3, 13)
	stack, err := pager.NewMemStack(pager.StackOptions{
		PageSize: PhysPageSize(512),
		Faults: &pager.FaultConfig{
			Seed:           21,
			WriteErrorRate: 0.15,
			TornWriteRate:  0.10,
		},
		Retry: pager.RetryOptions{Attempts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := New(Options{Space: d.Space, PageSize: 512, Pager: stack.Top, Codec: VectorCodec{Dim: 3}, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(Options{Space: d.Space, PageSize: 512, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range d.Objects {
		if err := faulty.Insert(obj); err != nil {
			t.Fatalf("insert under write faults: %v", err)
		}
		if err := twin.Insert(obj); err != nil {
			t.Fatal(err)
		}
	}
	st := stack.Faulty.FaultStats()
	if st.WriteErrors+st.TornWrites == 0 {
		t.Fatal("schedule injected no write faults — test proves nothing")
	}
	stack.Faulty.SetEnabled(false)
	if err := faulty.Verify(); err != nil {
		t.Fatalf("tree broken after faulted inserts: %v", err)
	}
	q := d.Objects[5]
	got, err := faulty.Range(q, 0.5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Range(q, 0.5, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(got, want) {
		t.Errorf("faulted tree returned %d matches, twin %d", len(got), len(want))
	}
}
