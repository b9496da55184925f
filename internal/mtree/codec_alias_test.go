package mtree

import (
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/pager"
)

// The aliasing invariant (the PR 1 bug class): an object returned by a
// codec Decode — and therefore any Match.Object handed out by a paged
// query — must never share memory with a pager page buffer, because the
// cache recycles those buffers. These tests pin the invariant directly
// at the codec layer (clobber the source buffer after decoding) and end
// to end (hold query results while churning a tiny cache until every
// page has been evicted and its buffer reused).

func TestCodecDecodeNeverAliasesBuffer(t *testing.T) {
	cases := []struct {
		name  string
		codec ObjectCodec
		obj   metric.Object
	}{
		{"vector", VectorCodec{Dim: 3}, metric.Vector{1.5, -2.25, 3.125}},
		{"string", StringCodec{}, "hello-world"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.codec.Append(nil, tc.obj)
			got, err := tc.codec.Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 0xAA // recycle the page buffer
			}
			reenc := tc.codec.Append(nil, got)
			want := tc.codec.Append(nil, tc.obj)
			if string(reenc) != string(want) {
				t.Fatalf("decoded %s aliased its source buffer: re-encoded %x, want %x", tc.name, reenc, want)
			}
		})
	}
}

func TestPagedResultsSurviveCacheRecycling(t *testing.T) {
	d := dataset.PaperClustered(400, 4, 13)
	base, err := pager.NewMem(PhysPageSize(1024))
	if err != nil {
		t.Fatal(err)
	}
	// A 2-page cache guarantees every page a query touched is evicted —
	// and its buffer recycled — almost immediately.
	cache, err := pager.NewCache(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(Options{
		Space:    d.Space,
		PageSize: 1024,
		Codec:    VectorCodec{Dim: 4},
		Pager:    cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InsertAll(d.Objects); err != nil {
		t.Fatal(err)
	}
	q := d.Objects[7]
	held, err := tr.Range(q, 0.4, QueryOptions{UseParentDist: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(held) == 0 {
		t.Fatal("test needs a non-empty result set")
	}
	snapshot := make([]metric.Vector, len(held))
	for i, m := range held {
		snapshot[i] = m.Object.(metric.Vector).Clone()
	}
	// Churn the cache: every page gets evicted and its buffer reused.
	for _, probe := range dataset.PaperClusteredQueries(32, 4, 13).Queries {
		if _, err := tr.Range(probe, 0.5, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range held {
		v := m.Object.(metric.Vector)
		for j := range v {
			if v[j] != snapshot[i][j] {
				t.Fatalf("held result %d mutated after cache recycling: %v != %v", i, v, snapshot[i])
			}
		}
	}
}
