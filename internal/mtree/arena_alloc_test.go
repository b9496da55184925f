package mtree

import (
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
)

// The allocation gate. The arena's RangeAppend/NNAppend over an Lp
// vector space must not allocate at all once the pooled scratch and the
// caller's destination slice are warm — that is the contract the CI
// allocation-gate job pins (modeled on the obs zero-cost tests). The
// testing.AllocsPerOp benchmarks alongside make regressions visible
// with -benchmem.

func arenaAllocFixture(tb testing.TB) (*Tree, []metric.Object) {
	tb.Helper()
	d := dataset.PaperClustered(2000, 10, 21)
	tr, err := New(Options{Space: d.Space, PageSize: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(d.Objects); err != nil {
		tb.Fatal(err)
	}
	if err := tr.FreezeArena(ArenaConfig{}); err != nil {
		tb.Fatal(err)
	}
	return tr, dataset.PaperClusteredQueries(16, 10, 21).Queries
}

func TestArenaRangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tr, qs := arenaAllocFixture(t)
	a := tr.Arena()
	opt := QueryOptions{UseParentDist: true}
	dst := make([]Match, 0, 256)
	// Warm the scratch pool and grow dst to steady state.
	for _, q := range qs {
		var err error
		dst, err = a.RangeAppend(dst[:0], q, 0.5, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = a.RangeAppend(dst[:0], qs[0], 0.5, opt)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("arena Lp range hot path allocates %.1f allocs/op, the gate is 0", allocs)
	}
}

func TestArenaNNZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tr, qs := arenaAllocFixture(t)
	a := tr.Arena()
	opt := QueryOptions{UseParentDist: true}
	dst := make([]Match, 0, 64)
	for _, q := range qs {
		var err error
		dst, err = a.NNAppend(dst[:0], q, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = a.NNAppend(dst[:0], qs[0], 10, opt)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("arena NN hot path allocates %.1f allocs/op, the gate is 0", allocs)
	}
}

func BenchmarkArenaRangeAppend(b *testing.B) {
	tr, qs := arenaAllocFixture(b)
	a := tr.Arena()
	opt := QueryOptions{UseParentDist: true}
	dst := make([]Match, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = a.RangeAppend(dst[:0], qs[i%len(qs)], 0.5, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArenaNNAppend(b *testing.B) {
	tr, qs := arenaAllocFixture(b)
	a := tr.Arena()
	opt := QueryOptions{UseParentDist: true}
	dst := make([]Match, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = a.NNAppend(dst[:0], qs[i%len(qs)], 10, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaVsStoreRange is the throughput headline: the same query
// served by the store-backed traversal and by the arena.
func BenchmarkArenaVsStoreRange(b *testing.B) {
	d := dataset.PaperClustered(2000, 10, 21)
	qs := dataset.PaperClusteredQueries(16, 10, 21).Queries
	opt := QueryOptions{UseParentDist: true}

	store, err := New(Options{Space: d.Space, PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if err := store.BulkLoad(d.Objects); err != nil {
		b.Fatal(err)
	}
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := store.Range(qs[i%len(qs)], 0.5, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := store.FreezeArena(ArenaConfig{}); err != nil {
		b.Fatal(err)
	}
	a := store.Arena()
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]Match, 0, 256)
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = a.RangeAppend(dst[:0], qs[i%len(qs)], 0.5, opt)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
