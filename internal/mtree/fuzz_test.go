package mtree

import (
	"math"
	"testing"

	"mcost/internal/metric"
)

// FuzzDecodeNodeVector hardens the page decoder: arbitrary bytes must
// produce either an error or a structurally valid node — never a panic
// or a node that re-encodes differently. Run with `go test -fuzz
// FuzzDecodeNodeVector`; the seed corpus alone runs in normal tests.
func FuzzDecodeNodeVector(f *testing.F) {
	codec := VectorCodec{Dim: 2}
	// Seed with valid encodings of both node kinds.
	leaf := &node{id: 1, leaf: true, entries: []Entry{
		{Object: metric.Vector{0.25, 0.75}, OID: 9, ParentDist: 0.5},
		{Object: metric.Vector{0, 1}, OID: 10, ParentDist: math.NaN()},
	}}
	internal := &node{id: 2, leaf: false, entries: []Entry{
		{Object: metric.Vector{0.5, 0.5}, Radius: 0.3, Child: 7, ParentDist: 0.1},
	}}
	for _, n := range []*node{leaf, internal} {
		buf, err := n.encode(codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeNode(0, data, codec)
		if err != nil {
			return
		}
		// A successfully decoded node must re-encode without error.
		if _, err := n.encode(codec); err != nil {
			t.Fatalf("decoded node fails to re-encode: %v", err)
		}
		for _, e := range n.entries {
			if v, ok := e.Object.(metric.Vector); !ok || len(v) != 2 {
				t.Fatalf("decoded entry with bad object %T", e.Object)
			}
		}
	})
}

// FuzzDecodeNodeString covers the variable-length codec path.
func FuzzDecodeNodeString(f *testing.F) {
	codec := StringCodec{}
	n := &node{id: 3, leaf: true, entries: []Entry{
		{Object: "fuzzing", OID: 1, ParentDist: 2},
		{Object: "", OID: 2, ParentDist: 3},
	}}
	buf, err := n.encode(codec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
	f.Add([]byte{0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeNode(0, data, codec)
		if err != nil {
			return
		}
		if _, err := n.encode(codec); err != nil {
			t.Fatalf("decoded node fails to re-encode: %v", err)
		}
	})
}
