// Package mtree implements the M-tree of Ciaccia, Patella and Zezula
// (VLDB'97): a paged, dynamic, balanced access method for generic metric
// spaces. Leaf nodes store [object, oid] entries; internal nodes store
// [routing object, covering radius, child pointer] entries; every entry
// also keeps its distance to the parent routing object, enabling the
// triangle-inequality pruning the original paper describes (toggleable at
// query time, since the 1998 cost model deliberately ignores it).
//
// The tree supports incremental insertion with configurable promotion and
// partition policies, the BulkLoading construction of Ciaccia & Patella
// (ADC'98), range and optimal k-NN search, per-node and per-level
// statistics extraction for the cost models, and an invariant verifier.
// Nodes live in fixed-size pages; storage is either an in-memory node map
// (fast, reads counted logically) or fully paged through a pager.Pager
// with real serialization on every access.
package mtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"mcost/internal/metric"
)

// ObjectCodec serializes objects into node pages. Implementations must
// round-trip every object of their space exactly.
type ObjectCodec interface {
	// Size returns the encoded size of o in bytes.
	Size(o metric.Object) int
	// Append encodes o onto buf and returns the extended slice.
	Append(buf []byte, o metric.Object) []byte
	// Decode reads one object of the given encoded size from buf.
	Decode(buf []byte) (metric.Object, error)
}

// VectorCodec encodes fixed-dimension float64 vectors.
type VectorCodec struct {
	// Dim is the vector dimensionality; all objects must match.
	Dim int
}

// Size implements ObjectCodec.
func (c VectorCodec) Size(o metric.Object) int {
	v, ok := o.(metric.Vector)
	if !ok {
		panic(fmt.Sprintf("mtree: VectorCodec got %T", o))
	}
	if len(v) != c.Dim {
		panic(fmt.Sprintf("mtree: VectorCodec dim %d got vector of %d", c.Dim, len(v)))
	}
	return 8 * c.Dim
}

// Append implements ObjectCodec.
func (c VectorCodec) Append(buf []byte, o metric.Object) []byte {
	v := o.(metric.Vector)
	if len(v) != c.Dim {
		panic(fmt.Sprintf("mtree: VectorCodec dim %d got vector of %d", c.Dim, len(v)))
	}
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// Decode implements ObjectCodec.
func (c VectorCodec) Decode(buf []byte) (metric.Object, error) {
	if len(buf) != 8*c.Dim {
		return nil, fmt.Errorf("mtree: vector payload %d bytes, want %d", len(buf), 8*c.Dim)
	}
	v := make(metric.Vector, c.Dim)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return v, nil
}

// StringCodec encodes string objects (e.g. keywords under edit distance).
type StringCodec struct{}

// Size implements ObjectCodec.
func (StringCodec) Size(o metric.Object) int {
	s, ok := o.(string)
	if !ok {
		panic(fmt.Sprintf("mtree: StringCodec got %T", o))
	}
	return len(s)
}

// Append implements ObjectCodec.
func (StringCodec) Append(buf []byte, o metric.Object) []byte {
	return append(buf, o.(string)...)
}

// Decode implements ObjectCodec.
func (StringCodec) Decode(buf []byte) (metric.Object, error) {
	return string(buf), nil
}

// CodecFor returns the natural codec for a sample object of a space.
func CodecFor(sample metric.Object) (ObjectCodec, error) {
	switch v := sample.(type) {
	case metric.Vector:
		return VectorCodec{Dim: len(v)}, nil
	case string:
		return StringCodec{}, nil
	default:
		return nil, fmt.Errorf("mtree: no codec for object type %T", sample)
	}
}
