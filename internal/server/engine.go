// Package server is the cost-aware HTTP serving layer over a built
// index: an HTTP/JSON API (/v1/range, /v1/nn, /v1/stats, /healthz)
// whose admission control is denominated in the paper's cost units.
// Every incoming query is priced with the level-based cost model
// (L-MCM) before it runs; the predicted node reads and distance
// computations are charged against a token bucket of capacity-per-
// second, a per-request execution budget of prediction × slack is
// attached, and the query is either executed, micro-batched with
// compatible queued queries to amortize node reads, or shed with a
// typed 429 carrying the predicted cost so clients can back off
// proportionally to what they asked for.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"unicode/utf8"

	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/recal"
)

// Engine is the query engine behind the server: a built index that can
// price queries before running them and execute compatible batches in
// one shared traversal. *mcost.Index satisfies it at any shard count.
type Engine interface {
	// PriceRange / PriceNN return the L-MCM predicted cost of one
	// query — the admission currency.
	PriceRange(radius float64) core.CostEstimate
	PriceNN(k int) core.CostEstimate
	// RangeBatchTraced / NNBatchTraced execute a batch under a context,
	// a batch budget, and an optional trace; partial per-query results
	// accompany a typed budget/context error.
	RangeBatchTraced(ctx context.Context, qs []metric.Object, radius float64, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error)
	NNBatchTraced(ctx context.Context, qs []metric.Object, k int, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error)
	// Structural facts for budget floors and /healthz.
	Size() int
	NumNodes() int
	Height() int
	PageSize() int
}

// Mutable is the optional write surface of an Engine. An engine that
// implements it gets /v1/insert and /v1/delete mounted, with the server
// serializing writes against in-flight queries (the trees are not safe
// for mutation concurrent with reads). *mcost.Index satisfies it.
type Mutable interface {
	Insert(obj metric.Object) (uint64, error)
	Delete(obj metric.Object, oid uint64) error
}

// RecalReporter is the optional recalibration surface: an engine with a
// live recalibrator reports its drift state, which /v1/stats exposes as
// gauges.
type RecalReporter interface {
	RecalStats() (recal.Stats, bool)
}

// ModelReporter is the optional model-export surface: an engine that
// can describe its cost model on the wire (a shard node's F̂/L-MCM
// summary) gets GET /v1/model mounted, which the scatter-gather router
// fetches at boot to price, prune, and hedge per shard. *shard.Node
// satisfies it.
type ModelReporter interface {
	ModelSummary() (json.RawMessage, error)
}

// ObjectDecoder decodes the "query" field of a request into a metric
// object, rejecting anything the engine's space cannot compare. A
// decoder must validate strictly: wrong shapes and non-finite values
// are errors, never coerced.
type ObjectDecoder func(raw json.RawMessage) (metric.Object, error)

// VectorDecoder returns a decoder for D-dimensional vector spaces: the
// query must be a JSON array of exactly dim finite numbers.
func VectorDecoder(dim int) ObjectDecoder {
	return func(raw json.RawMessage) (metric.Object, error) {
		var v []float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("query must be an array of %d numbers: %v", dim, err)
		}
		if len(v) != dim {
			return nil, fmt.Errorf("query has %d coordinates, index is %d-dimensional", len(v), dim)
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("query coordinate %d is not finite", i)
			}
		}
		return metric.Vector(v), nil
	}
}

// StringDecoder returns a decoder for string spaces: the query must be
// a valid UTF-8 JSON string of at most maxLen bytes (the space's
// distance bound assumes bounded length).
func StringDecoder(maxLen int) ObjectDecoder {
	return func(raw json.RawMessage) (metric.Object, error) {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("query must be a string: %v", err)
		}
		if maxLen > 0 && len(s) > maxLen {
			return nil, fmt.Errorf("query is %d bytes, space bounds strings at %d", len(s), maxLen)
		}
		if !utf8.ValidString(s) {
			return nil, fmt.Errorf("query is not valid UTF-8")
		}
		return s, nil
	}
}

// BitStringDecoder returns a decoder for fixed-length string spaces
// (Hamming): the query must be a JSON string of exactly n bytes.
// Hamming distance panics on length mismatch, so anything shorter or
// longer must die here as a typed 4xx, never reach a distance call.
func BitStringDecoder(n int) ObjectDecoder {
	return func(raw json.RawMessage) (metric.Object, error) {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("query must be a string: %v", err)
		}
		if len(s) != n {
			return nil, fmt.Errorf("query is %d bytes, index holds fixed-length strings of %d", len(s), n)
		}
		if !utf8.ValidString(s) {
			return nil, fmt.Errorf("query is not valid UTF-8")
		}
		return s, nil
	}
}

// DecoderForSpace infers the strictest decoder the space admits from a
// sample indexed object (see DecoderForKind).
func DecoderForSpace(space *metric.Space, sample metric.Object) (ObjectDecoder, error) {
	switch o := sample.(type) {
	case metric.Vector:
		return DecoderForKind(space, "vector", len(o))
	case string:
		return DecoderForKind(space, "string", len(o))
	}
	return nil, fmt.Errorf("server: no decoder for object type %T", sample)
}

// DecoderForKind is the decoder rule for a caller that knows the indexed
// objects' kind ("vector" or "string") and size rather than holding one
// — a router reads both from its shards' model summaries. size is the
// vector dimension, or the string length: a Hamming space gets a
// fixed-length decoder, so a mismatched query is a 400 instead of a
// panic inside the distance function; other string spaces only bound
// the length by d+.
func DecoderForKind(space *metric.Space, kind string, size int) (ObjectDecoder, error) {
	if space == nil {
		return nil, fmt.Errorf("server: nil space")
	}
	switch {
	case kind == "vector":
		return VectorDecoder(size), nil
	case kind == "string" && space.Name == "hamming":
		return BitStringDecoder(size), nil
	case kind == "string":
		return StringDecoder(int(space.Bound)), nil
	}
	return nil, fmt.Errorf("server: no decoder for object kind %q", kind)
}
