package mtree

import (
	"bytes"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/pager"
)

// A freeze allocates every slab once, at its final size, and on a
// vector space the coordinate slab is the one copy of every entry's
// vector: arena results are views into it, and in memory mode the
// store's entries are the very same views.
func TestFreezeSlabsExactlySized(t *testing.T) {
	const dim = 5
	d := dataset.PaperClustered(700, dim, 9)
	queries := dataset.PaperClusteredQueries(8, dim, 9).Queries
	extra := dataset.PaperClusteredQueries(60, dim, 10).Queries
	for _, mode := range []string{"memory", "paged"} {
		t.Run(mode, func(t *testing.T) {
			opt := Options{Space: d.Space, PageSize: 512, Seed: 3}
			if mode == "paged" {
				p, err := pager.NewMem(PhysPageSize(opt.PageSize))
				if err != nil {
					t.Fatal(err)
				}
				opt.Pager, opt.Codec = p, VectorCodec{Dim: dim}
			}
			tr, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(d.Objects); err != nil {
				t.Fatal(err)
			}
			freezeAndCheck(t, mode+"/fresh", tr, queries)

			for _, o := range extra {
				if err := tr.Insert(o); err != nil {
					t.Fatal(err)
				}
			}
			for oid := 0; oid < len(d.Objects); oid += 3 {
				if err := tr.Delete(d.Objects[oid], uint64(oid)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Verify(); err != nil {
				t.Fatal(err)
			}
			freezeAndCheck(t, mode+"/refrozen", tr, queries)
		})
	}
}

// A restored paged tree knows the pages freed before its snapshot: it
// counts exactly the original's nodes, the freeze sizes the slabs to
// them, and later inserts reuse the freed pages before growing the
// pager.
func TestFreezeRestoredTreeTrimsSlabs(t *testing.T) {
	const dim = 5
	d := dataset.PaperClustered(700, dim, 9)
	p, err := pager.NewMem(PhysPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Space: d.Space, PageSize: 512, Seed: 3, Pager: p, Codec: VectorCodec{Dim: dim}}
	tr, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(d.Objects); err != nil {
		t.Fatal(err)
	}
	for oid := range d.Objects[:500] {
		if err := tr.Delete(d.Objects[oid], uint64(oid)); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := tr.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	nodes, pages := tr.NumNodes(), p.NumPages()
	if pages == nodes {
		t.Fatal("no page was freed before the snapshot: the test checks nothing")
	}
	if restored.NumNodes() != nodes {
		t.Fatalf("restored tree counts %d nodes, the original %d", restored.NumNodes(), nodes)
	}
	if err := restored.FreezeArena(ArenaConfig{}); err != nil {
		t.Fatal(err)
	}
	a := restored.Arena()
	entries := tr.Size() + tr.NumNodes() - 1
	if a.NumNodes() != tr.NumNodes() || len(a.oid) != entries || len(a.vecs) != entries*dim {
		t.Fatalf("arena has %d nodes, %d entries, %d coordinates; want %d, %d, %d",
			a.NumNodes(), len(a.oid), len(a.vecs), tr.NumNodes(), entries, entries*dim)
	}
	for _, q := range dataset.PaperClusteredQueries(8, dim, 9).Queries {
		want, err := tr.Range(q, 0.3, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Range(q, 0.3, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, "restored", got, want)
	}

	for _, o := range dataset.PaperClusteredQueries(200, dim, 11).Queries {
		if err := restored.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.Verify(); err != nil {
		t.Fatal(err)
	}
	added, grown := restored.NumNodes()-nodes, p.NumPages()-pages
	t.Logf("200 inserts added %d nodes with %d pages free; the pager grew by %d", added, pages-nodes, grown)
	if want := max(0, added-(pages-nodes)); grown != want {
		t.Errorf("200 inserts added %d nodes and grew the pager by %d pages with %d free; want %d", added, grown, pages-nodes, want)
	}
}

// freezeAndCheck freezes tr and checks the arena's slab sizes and the
// aliasing of its range results against the thawed store's.
func freezeAndCheck(t *testing.T, label string, tr *Tree, queries []metric.Object) {
	t.Helper()
	if err := tr.FreezeArena(ArenaConfig{}); err != nil {
		t.Fatal(err)
	}
	a := tr.Arena()
	nodes, entries := tr.NumNodes(), tr.Size()+tr.NumNodes()-1
	if a.NumNodes() != nodes {
		t.Fatalf("%s: arena has %d nodes, store %d", label, a.NumNodes(), nodes)
	}
	for _, s := range []struct {
		name     string
		len, cap int
		want     int
	}{
		{"leaf", len(a.leaf), cap(a.leaf), nodes},
		{"start", len(a.start), cap(a.start), nodes},
		{"end", len(a.end), cap(a.end), nodes},
		{"radius", len(a.radius), cap(a.radius), entries},
		{"parentDist", len(a.parentDist), cap(a.parentDist), entries},
		{"child", len(a.child), cap(a.child), entries},
		{"oid", len(a.oid), cap(a.oid), entries},
		{"objs", len(a.objs), cap(a.objs), entries},
		{"vecs", len(a.vecs), cap(a.vecs), entries * a.dim},
	} {
		if s.len != s.want || s.cap != s.want {
			t.Errorf("%s: slab %s has len %d, cap %d; want %d", label, s.name, s.len, s.cap, s.want)
		}
	}
	inSlab := func(o metric.Object) bool {
		v := o.(metric.Vector)
		for j := 0; j < len(a.objs); j++ {
			row := a.vecs[j*a.dim : (j+1)*a.dim]
			if &v[0] == &row[0] {
				return len(v) == a.dim && cap(v) == a.dim
			}
		}
		return false
	}

	opt := QueryOptions{UseParentDist: true}
	for qi, q := range queries {
		got, err := tr.Range(q, 0.3, opt)
		if err != nil {
			t.Fatal(err)
		}
		tr.ThawArena()
		want, err := tr.Range(q, 0.3, opt)
		tr.arena = a
		if err != nil {
			t.Fatal(err)
		}
		sameMatches(t, label, got, want)
		if len(got) == 0 {
			t.Fatalf("%s: query %d matches nothing; the aliasing check needs results", label, qi)
		}
		for i := range got {
			if !inSlab(got[i].Object) {
				t.Fatalf("%s: query %d result %d (oid %d) is not a capacity-capped view into the slab", label, qi, i, got[i].OID)
			}
			g, w := got[i].Object.(metric.Vector), want[i].Object.(metric.Vector)
			if tr.opt.Pager == nil && &g[0] != &w[0] {
				t.Fatalf("%s: query %d result %d (oid %d): the arena and the store return different boxes", label, qi, i, got[i].OID)
			}
		}
	}
}
