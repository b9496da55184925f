package mtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mcost/internal/metric"
	"mcost/internal/pager"
)

func TestVectorCodecRoundTrip(t *testing.T) {
	c := VectorCodec{Dim: 4}
	v := metric.Vector{0.1, -2.5, math.Pi, 1e-300}
	if c.Size(v) != 32 {
		t.Fatalf("Size = %d", c.Size(v))
	}
	buf := c.Append(nil, v)
	got, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	gv := got.(metric.Vector)
	for i := range v {
		if gv[i] != v[i] {
			t.Fatalf("coordinate %d: %g != %g", i, gv[i], v[i])
		}
	}
	if _, err := c.Decode(buf[:10]); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestVectorCodecDimMismatchPanics(t *testing.T) {
	c := VectorCodec{Dim: 3}
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch should panic")
		}
	}()
	c.Size(metric.Vector{1, 2})
}

func TestStringCodecRoundTrip(t *testing.T) {
	c := StringCodec{}
	s := "héllo wörld"
	buf := c.Append(nil, s)
	if len(buf) != c.Size(s) {
		t.Fatalf("Size %d != appended %d", c.Size(s), len(buf))
	}
	got, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.(string) != s {
		t.Fatalf("round trip %q", got)
	}
}

func TestCodecFor(t *testing.T) {
	if c, err := CodecFor(metric.Vector{1, 2}); err != nil {
		t.Fatal(err)
	} else if c.(VectorCodec).Dim != 2 {
		t.Fatal("wrong dim")
	}
	if _, err := CodecFor("word"); err != nil {
		t.Fatal(err)
	}
	if _, err := CodecFor(42); err == nil {
		t.Fatal("int accepted")
	}
}

func TestNodeEncodeDecodeLeaf(t *testing.T) {
	codec := StringCodec{}
	n := &node{id: 7, leaf: true, entries: []Entry{
		{Object: "alpha", OID: 3, ParentDist: 1.5},
		{Object: "bravo", OID: 9, ParentDist: math.NaN()},
		{Object: "", OID: 0, ParentDist: 0},
	}}
	buf, err := n.encode(codec)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != n.bytes(codec) {
		t.Fatalf("encoded %d bytes, bytes() says %d", len(buf), n.bytes(codec))
	}
	got, err := decodeNode(7, buf, codec)
	if err != nil {
		t.Fatal(err)
	}
	if !got.leaf || len(got.entries) != 3 {
		t.Fatalf("decoded leaf=%v entries=%d", got.leaf, len(got.entries))
	}
	if got.entries[0].Object.(string) != "alpha" || got.entries[0].OID != 3 || got.entries[0].ParentDist != 1.5 {
		t.Fatalf("entry 0 = %+v", got.entries[0])
	}
	if !math.IsNaN(got.entries[1].ParentDist) {
		t.Fatal("NaN ParentDist lost")
	}
}

func TestNodeEncodeDecodeInternal(t *testing.T) {
	codec := VectorCodec{Dim: 2}
	n := &node{id: 1, leaf: false, entries: []Entry{
		{Object: metric.Vector{0.5, 0.5}, Radius: 0.25, Child: 42, ParentDist: 0.9},
		{Object: metric.Vector{0.1, 0.9}, Radius: 0.5, Child: 99, ParentDist: math.NaN()},
	}}
	buf, err := n.encode(codec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeNode(1, buf, codec)
	if err != nil {
		t.Fatal(err)
	}
	if got.leaf {
		t.Fatal("leaf flag corrupted")
	}
	if got.entries[0].Child != 42 || got.entries[0].Radius != 0.25 {
		t.Fatalf("entry 0 = %+v", got.entries[0])
	}
	if got.entries[1].Child != 99 {
		t.Fatalf("entry 1 child = %d", got.entries[1].Child)
	}
}

func TestNodeRoundTripQuick(t *testing.T) {
	codec := VectorCodec{Dim: 3}
	f := func(seed int64, leaf bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := &node{id: pager.PageID(rng.Intn(1000)), leaf: leaf}
		count := rng.Intn(20)
		for i := 0; i < count; i++ {
			e := Entry{
				Object:     metric.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
				ParentDist: rng.Float64() * 10,
			}
			if leaf {
				e.OID = rng.Uint64()
			} else {
				e.Radius = rng.Float64()
				e.Child = pager.PageID(rng.Uint32())
			}
			n.entries = append(n.entries, e)
		}
		buf, err := n.encode(codec)
		if err != nil {
			return false
		}
		got, err := decodeNode(n.id, buf, codec)
		if err != nil {
			return false
		}
		if got.leaf != n.leaf || len(got.entries) != len(n.entries) {
			return false
		}
		for i := range n.entries {
			a, b := n.entries[i], got.entries[i]
			if a.ParentDist != b.ParentDist || a.OID != b.OID || a.Radius != b.Radius || a.Child != b.Child {
				return false
			}
			av, bv := a.Object.(metric.Vector), b.Object.(metric.Vector)
			for j := range av {
				if av[j] != bv[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNodeRejectsTruncation(t *testing.T) {
	codec := StringCodec{}
	n := &node{id: 0, leaf: true, entries: []Entry{{Object: "abcdef", OID: 1, ParentDist: 2}}}
	buf, err := n.encode(codec)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := decodeNode(0, buf[:cut], codec); err == nil {
			// Truncations that still parse as a shorter valid node are
			// impossible here because the entry count stays 1.
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeNode(0, nil, codec); err == nil {
		t.Fatal("empty page accepted")
	}
}

func TestFitsAccounting(t *testing.T) {
	codec := VectorCodec{Dim: 2}
	n := &node{leaf: true}
	pageSize := 128
	e := Entry{Object: metric.Vector{0, 0}}
	added := 0
	for n.fits(codec, e, pageSize) {
		n.entries = append(n.entries, e)
		added++
	}
	if got := n.bytes(codec); got > pageSize {
		t.Fatalf("node grew to %d bytes, page is %d", got, pageSize)
	}
	// leaf entry: 8+8+2+16 = 34 bytes; header 3: (128-3)/34 = 3 entries.
	if added != 3 {
		t.Fatalf("added %d entries, want 3", added)
	}
}

// TestNodeCapacitiesMatchLayout pins NodeCapacities — the capacity
// formula shared with the stats-free planner — against the actual page
// layout: exactly leafCap (internalCap) entries fit a page via the
// tree's own fits/encode path, and one more does not. A page-layout
// change that NodeCapacities misses fails here before it can silently
// skew mcost.PlanIndex's tree-shape prediction.
func TestNodeCapacitiesMatchLayout(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pageSize int
		dim      int
	}{
		{"tiny", 128, 2},
		{"odd", 517, 3},
		{"default", 4096, 8},
		{"large-objects", 1024, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			codec := VectorCodec{Dim: tc.dim}
			obj := make(metric.Vector, tc.dim)
			leafCap, internalCap := NodeCapacities(tc.pageSize, codec.Size(obj))
			if leafCap < internalCap {
				t.Fatalf("leafCap %d < internalCap %d: leaf entries are smaller", leafCap, internalCap)
			}
			for _, kind := range []struct {
				leaf bool
				cap  int
			}{{true, leafCap}, {false, internalCap}} {
				n := &node{leaf: kind.leaf}
				e := Entry{Object: obj}
				for i := 0; i < kind.cap; i++ {
					if !n.fits(codec, e, tc.pageSize) {
						t.Fatalf("leaf=%v: entry %d/%d does not fit", kind.leaf, i+1, kind.cap)
					}
					n.entries = append(n.entries, e)
				}
				if n.fits(codec, e, tc.pageSize) {
					t.Fatalf("leaf=%v: entry %d fits beyond stated capacity", kind.leaf, kind.cap+1)
				}
				buf, err := n.encode(codec)
				if err != nil {
					t.Fatal(err)
				}
				if len(buf) > tc.pageSize {
					t.Fatalf("leaf=%v: full node encodes to %d bytes on a %d-byte page", kind.leaf, len(buf), tc.pageSize)
				}
			}
		})
	}
	// Degenerate shapes cannot panic or go negative.
	if l, i := NodeCapacities(2, 16); l != 0 || i != 0 {
		t.Fatalf("capacities on sub-header page: %d, %d", l, i)
	}
	if l, i := NodeCapacities(-10, 16); l != 0 || i != 0 {
		t.Fatalf("capacities on negative page: %d, %d", l, i)
	}
}
