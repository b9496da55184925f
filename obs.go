package mcost

import "mcost/internal/obs"

// QueryTrace records a per-query, level-resolved execution trace: node
// visits, distance computations, and pruning outcomes attributed per
// lemma (parent-distance vs covering-radius), indexed by tree level
// (root = level 1, matching the paper's convention and the per-level
// cost model L-MCM). A nil *QueryTrace disables recording at zero cost.
//
// A trace must not be shared across concurrent queries; give each query
// its own and Merge them afterwards in query order for deterministic
// aggregates.
type QueryTrace = obs.Trace

// MetricsRegistry is a process-wide registry of named counters and
// fixed-bin histograms, safe for concurrent use and mergeable across
// workers.
type MetricsRegistry = obs.Registry

// NewQueryTrace returns an empty trace ready to pass to
// RangeBatchTraced or NNBatchTraced.
func NewQueryTrace() *QueryTrace { return obs.NewTrace() }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
