package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/rescache"
)

// DefaultBudgetSlack mirrors the facade's default: an admitted query
// may spend this multiple of its own L-MCM prediction before being
// stopped with partial results.
const DefaultBudgetSlack = 4.0

// DefaultMaxBodyBytes caps request bodies (1 MiB).
const DefaultMaxBodyBytes = 1 << 20

// DefaultWedgeThreshold is how long a write may hold (or wait on) the
// writer lock before /healthz starts reporting the node wedged.
const DefaultWedgeThreshold = 5 * time.Second

// retryJitterFrac spreads each 429's retry_after_ms over
// [base, base·(1+frac)] so a recovering node is not hit by every shed
// client on the same tick.
const retryJitterFrac = 0.25

// Config assembles a Server.
type Config struct {
	// Engine answers and prices the queries (required).
	Engine Engine
	// Decode parses the "query" field (required; see DecoderForSpace).
	Decode ObjectDecoder
	// Admission sizes the cost token bucket (zero = admit everything).
	Admission AdmitConfig
	// Batch tunes the micro-batcher (zero = dispatch immediately).
	Batch BatchConfig
	// Cache, when non-nil, is probed between pricing and admission: a
	// containment hit answers the query exactly from a recent result,
	// spending no admission tokens and no engine work. Misses fall
	// through unchanged and populate the cache from complete, error-free
	// responses only.
	Cache *rescache.Cache
	// BudgetSlack scales each request's execution budget off its own
	// prediction: budget = prediction × slack (0 picks
	// DefaultBudgetSlack; negative disables budgets).
	BudgetSlack float64
	// MaxBodyBytes caps request bodies (0 picks DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxK caps k-NN requests (0 picks the indexed object count, read
	// per request so inserts and deletes move the cap).
	MaxK int
	// PlanCeiling rejects queries whose plan — node reads plus distance
	// computations of the engine the planner picks (a router's: the
	// tree fan-out) — prices above it, with a typed 422 plan_rejected.
	// Zero disables the ceiling. Requires a planning engine (one
	// satisfying Planner); New rejects a ceiling on any other, such as
	// a shard node.
	PlanCeiling float64
	// Registry receives the server metrics (nil allocates a fresh one).
	Registry *obs.Registry
	// Clock is a test hook for the admission bucket and queue timing
	// (nil = time.Now).
	Clock func() time.Time
	// Debug mounts http.DefaultServeMux under /debug/ — net/http/pprof
	// and expvar when the binary imports them.
	Debug bool
	// WedgeThreshold is how long a write may hold or wait on the writer
	// lock before /healthz reports 503 "wedged" (0 picks
	// DefaultWedgeThreshold; negative disables the check).
	WedgeThreshold time.Duration
	// JitterSeed seeds the 429 retry_after_ms jitter (0 seeds from the
	// clock; fixed seeds make shed-storm tests reproducible).
	JitterSeed int64
}

// Server is the cost-aware HTTP serving layer. Create with New, expose
// with Handler, and Close when done (flushes the micro-batcher).
type Server struct {
	eng Engine
	// base is the unwrapped engine handed to New — the value optional
	// interfaces (Mutable, RecalReporter) are discovered on. When the
	// engine is mutable, eng is a lockedEngine over base and wmu.
	base    Engine
	mut     Mutable
	wmu     sync.RWMutex
	dec     ObjectDecoder
	adm     *Admitter
	bat     *Batcher
	cache   *rescache.Cache
	reg     *obs.Registry
	slack   float64
	maxBody int64
	maxK    int
	debug   bool
	model   ModelReporter
	planner Planner
	ceiling float64
	clock   func() time.Time

	// Liveness state behind /healthz: writes tracks in-flight writers so
	// a wedged writer lock surfaces as 503 instead of an eternally-"ok"
	// node. Until the engine is built, BootingHandler answers instead.
	wedgeThresh time.Duration
	writes      writeTracker

	// jrng jitters 429 retry_after_ms (guarded by jmu).
	jmu  sync.Mutex
	jrng *rand.Rand

	cRequests  *obs.Counter
	cAdmitted  *obs.Counter
	cShed      *obs.Counter
	cRejected  *obs.Counter
	cPartial   *obs.Counter
	cErrors    *obs.Counter
	cPredNode  *obs.Counter
	cPredDist  *obs.Counter
	cCacheHit  *obs.Counter
	cCacheMiss *obs.Counter
	cProbeDist *obs.Counter
	cSavedNode *obs.Counter
	cInserts   *obs.Counter
	cDeletes   *obs.Counter

	// Plan decision counters (only move when the engine is a Planner).
	cPlanTree     *obs.Counter
	cPlanScan     *obs.Counter
	cPlanRejected *obs.Counter
}

// New validates cfg and assembles the server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if cfg.Decode == nil {
		return nil, errors.New("server: nil object decoder")
	}
	if _, ok := cfg.Engine.(Planner); !ok && cfg.PlanCeiling > 0 {
		return nil, errors.New("server: a plan ceiling needs a planning engine; this one runs only its tree")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	slack := cfg.BudgetSlack
	if slack == 0 {
		slack = DefaultBudgetSlack
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	wedge := cfg.WedgeThreshold
	if wedge == 0 {
		wedge = DefaultWedgeThreshold
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	jseed := cfg.JitterSeed
	if jseed == 0 {
		jseed = clock().UnixNano()
	}
	s := &Server{
		base:        cfg.Engine,
		dec:         cfg.Decode,
		adm:         NewAdmitter(cfg.Admission, cfg.Clock),
		cache:       cfg.Cache,
		reg:         reg,
		slack:       slack,
		maxBody:     maxBody,
		maxK:        cfg.MaxK,
		debug:       cfg.Debug,
		clock:       clock,
		wedgeThresh: wedge,
		jrng:        rand.New(rand.NewSource(jseed)),
		cRequests:   reg.Counter("server.requests"),
		cAdmitted:   reg.Counter("server.admitted"),
		cShed:       reg.Counter("server.shed"),
		cRejected:   reg.Counter("server.rejected"),
		cPartial:    reg.Counter("server.partial"),
		cErrors:     reg.Counter("server.errors"),
		cPredNode:   reg.Counter("server.predicted_node_reads"),
		cPredDist:   reg.Counter("server.predicted_dist_calcs"),
		cCacheHit:   reg.Counter("server.cache_hits"),
		cCacheMiss:  reg.Counter("server.cache_misses"),
		cProbeDist:  reg.Counter("server.cache_probe_dists"),
		cSavedNode:  reg.Counter("server.cache_saved_node_reads"),
		cInserts:    reg.Counter("server.inserts"),
		cDeletes:    reg.Counter("server.deletes"),
		ceiling:     cfg.PlanCeiling,
	}
	// A mutable engine gets the readers-writer guard: queries (pricing
	// and batch dispatch) share the read side, /v1/insert and /v1/delete
	// take the write side. Read-only engines keep the zero-cost path.
	s.eng = cfg.Engine
	if mut, ok := cfg.Engine.(Mutable); ok {
		s.mut = mut
		s.eng = &lockedEngine{eng: cfg.Engine, mu: &s.wmu}
	}
	if mr, ok := cfg.Engine.(ModelReporter); ok {
		s.model = mr
	}
	if pl, ok := cfg.Engine.(Planner); ok {
		s.planner = pl
		s.cPlanTree = reg.Counter("server.plan_tree")
		s.cPlanScan = reg.Counter("server.plan_scan")
		s.cPlanRejected = reg.Counter("server.plan_rejected")
	}
	s.bat = NewBatcher(s.eng, cfg.Batch, reg, cfg.Clock)
	return s, nil
}

// Registry returns the server's metrics registry (the one /v1/stats
// serves).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close flushes the micro-batcher; pending queries complete.
func (s *Server) Close() { s.bat.Close() }

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/range", s.handleQuery(false))
	mux.HandleFunc("/v1/nn", s.handleQuery(true))
	mux.HandleFunc("/v1/insert", s.handleWrite(true))
	mux.HandleFunc("/v1/delete", s.handleWrite(false))
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/model", s.handleModel)
	mux.HandleFunc("/healthz", s.handleHealth)
	if s.debug {
		mux.Handle("/debug/", http.DefaultServeMux)
	}
	return mux
}

// CostJSON is a predicted cost on the wire.
type CostJSON struct {
	NodeReads float64 `json:"node_reads"`
	DistCalcs float64 `json:"dist_calcs"`
}

func costJSON(est core.CostEstimate) CostJSON {
	return CostJSON{NodeReads: est.Nodes, DistCalcs: est.Dists}
}

// MatchJSON is one query result on the wire.
type MatchJSON struct {
	OID      uint64        `json:"oid"`
	Distance float64       `json:"distance"`
	Object   metric.Object `json:"object"`
}

// matchesJSON puts engine matches on the wire ([] for none, never null).
func matchesJSON(ms []mtree.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = MatchJSON{OID: m.OID, Distance: m.Distance, Object: m.Object}
	}
	return out
}

// QueryResponse is the 200 body of /v1/range and /v1/nn.
type QueryResponse struct {
	Matches []MatchJSON `json:"matches"`
	// Partial reports a budget- or deadline-stopped query: every match
	// is valid, completeness was traded away. Degraded names the cause.
	Partial  bool   `json:"partial,omitempty"`
	Degraded string `json:"degraded,omitempty"`
	// Predicted is the L-MCM cost this query was admitted under.
	Predicted CostJSON `json:"predicted"`
	// Cached reports the answer was served exactly from the result
	// cache: no traversal ran and no admission tokens were spent. The
	// matches are bit-identical to what direct execution would return.
	Cached bool `json:"cached,omitempty"`
	// BatchSize and QueuedMS expose the micro-batcher's work: how many
	// queries shared the dispatch and how long this one waited. Both are
	// zero on a cache hit — the query never reached the batcher.
	BatchSize int     `json:"batch_size"`
	QueuedMS  float64 `json:"queued_ms"`
	// Plan is the advisor's engine choice with both priced alternatives
	// (only present on planning engines, and absent on cache hits — a
	// cached answer runs on no engine at all).
	Plan *PlanJSON `json:"plan,omitempty"`
	// ShardsSkipped, ShardsQueried, ShardsFailed and Hedged report a
	// fan-out engine's scatter (a router's): the shards the pivot lower
	// bound proved empty (a proof, not a degradation: a skipped shard
	// has answered), the shards called, the ones that failed every
	// attempt (Degraded is then "shards_failed"), and the calls that
	// fired a hedge. A single node omits all four.
	ShardsSkipped []int `json:"shards_skipped,omitempty"`
	ShardsQueried int   `json:"shards_queried,omitempty"`
	ShardsFailed  []int `json:"shards_failed,omitempty"`
	Hedged        int   `json:"hedged,omitempty"`
}

// ErrShardsFailed is the typed error of a fan-out engine whose query
// lost shards: every attempt at them failed. The call's obs.Fanout
// names them; the server answers with the other shards' merge, degraded
// "shards_failed", or with a 503 all_shards_failed when no shard
// answered, by reply or by proof.
var ErrShardsFailed = errors.New("shard loss")

// ErrorResponse is every non-200 body.
type ErrorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
	// PredictedCost accompanies a 429 so clients can back off
	// proportionally to what they asked for.
	PredictedCost *CostJSON `json:"predicted_cost,omitempty"`
	RetryAfterMS  int64     `json:"retry_after_ms,omitempty"`
	// ShardsFailed accompanies a 503 all_shards_failed.
	ShardsFailed []int `json:"shards_failed,omitempty"`
}

// RequestError is a typed request failure: the HTTP status and the
// machine-readable code of the ErrorResponse it is answered with.
type RequestError struct {
	Status int
	Code   string
	Msg    string
	cost   *CostJSON // the predicted cost a 422 plan_rejected quotes
}

func (e *RequestError) Error() string { return e.Msg }

func badRequest(code, format string, args ...interface{}) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// queryRequest is the decoded, validated body of /v1/range or /v1/nn.
type queryRequest struct {
	Query  metric.Object
	Radius float64
	K      int
}

// decodeQueryRequest parses and strictly validates a query body. dec
// decodes the "query" field; k above maxK is rejected. Every invalid
// input yields a typed *RequestError with a 4xx status; nothing is
// clamped: a negative radius or k is rejected, never coerced to a
// runnable query.
func decodeQueryRequest(r io.Reader, nn bool, dec ObjectDecoder, maxK int) (queryRequest, *RequestError) {
	var out queryRequest
	var raw struct {
		Query  json.RawMessage `json:"query"`
		Radius *float64        `json:"radius"`
		K      *int            `json:"k"`
	}
	if aerr := decodeStrict(r, &raw); aerr != nil {
		return out, aerr
	}
	if len(raw.Query) == 0 {
		return out, badRequest("missing_query", "request has no \"query\" field")
	}
	q, err := dec(raw.Query)
	if err != nil {
		return out, badRequest("bad_query", "%v", err)
	}
	out.Query = q
	if nn {
		if raw.Radius != nil {
			return out, badRequest("bad_k", "\"radius\" is not a k-NN parameter; POST /v1/range instead")
		}
		if raw.K == nil {
			return out, badRequest("missing_k", "k-NN request has no \"k\" field")
		}
		k := *raw.K
		if k <= 0 {
			return out, badRequest("bad_k", "k must be positive, got %d", k)
		}
		if k > maxK {
			return out, badRequest("bad_k", "k = %d exceeds the maximum %d", k, maxK)
		}
		out.K = k
		return out, nil
	}
	if raw.K != nil {
		return out, badRequest("bad_radius", "\"k\" is not a range parameter; POST /v1/nn instead")
	}
	if raw.Radius == nil {
		return out, badRequest("missing_radius", "range request has no \"radius\" field")
	}
	rad := *raw.Radius
	if math.IsNaN(rad) || math.IsInf(rad, 0) {
		return out, badRequest("bad_radius", "radius must be finite")
	}
	if rad < 0 {
		return out, badRequest("bad_radius", "radius must be non-negative, got %g", rad)
	}
	out.Radius = rad
	return out, nil
}

// decodeStrict decodes one request body into v: unknown fields and
// trailing data are a typed 400 bad_json, a body past the size cap a
// typed 413 body_too_large.
func decodeStrict(r io.Reader, v interface{}) *RequestError {
	jd := json.NewDecoder(r)
	jd.DisallowUnknownFields()
	if err := jd.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &RequestError{Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
				Msg: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		return badRequest("bad_json", "invalid request body: %v", err)
	}
	if jd.More() {
		return badRequest("bad_json", "trailing data after request body")
	}
	return nil
}

// budgetFor converts a prediction into the per-request execution cap,
// floored at the tree height so an admitted query can always walk root
// to leaf. Negative slack disables the budget.
func (s *Server) budgetFor(est core.CostEstimate) budget.Budget {
	if s.slack < 0 {
		return budget.Budget{}
	}
	return budget.FromPrediction(est.Nodes, est.Dists, s.slack, s.eng.Height())
}

// handleQuery prices, admits, batches, and executes one query.
func (s *Server) handleQuery(nn bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.cRequests.Inc()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.reject(w, &RequestError{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
				Msg: "query endpoints accept POST only"})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		maxK := s.maxK
		if nn && maxK <= 0 {
			maxK = s.eng.Size()
		}
		req, aerr := decodeQueryRequest(r.Body, nn, s.dec, maxK)
		if aerr != nil {
			s.reject(w, aerr)
			return
		}

		// Price first: the prediction is both the admission charge and
		// the execution budget seed.
		var est core.CostEstimate
		if nn {
			est = s.eng.PriceNN(req.K)
		} else {
			est = s.eng.PriceRange(req.Radius)
		}
		s.cPredNode.Add(int64(math.Ceil(est.Nodes)))
		s.cPredDist.Add(int64(math.Ceil(est.Dists)))

		// Probe the result cache before admission: a containment hit is
		// exact and nearly free, so it must not spend bucket tokens the
		// traversal it avoids would have charged. The epoch read here
		// also stamps any entry this request later Puts: a write racing
		// the execution bumps the epoch first, so the stale entry can
		// never answer a probe.
		var cacheEpoch uint64
		if s.cache != nil {
			cacheEpoch = s.cache.Epoch()
			var pr rescache.Probe
			if nn {
				pr = s.cache.GetNN(req.Query, req.K, est)
			} else {
				pr = s.cache.GetRange(req.Query, req.Radius, est)
			}
			s.cProbeDist.Add(int64(pr.Dists))
			if pr.Hit {
				s.cCacheHit.Inc()
				s.cSavedNode.Add(int64(math.Ceil(est.Nodes)))
				writeJSON(w, http.StatusOK, QueryResponse{
					Predicted: costJSON(est),
					Cached:    true,
					Matches:   matchesJSON(pr.Matches),
				})
				return
			}
			s.cCacheMiss.Inc()
		}

		// Plan after the cache (a hit executes nothing, so the ceiling
		// has nothing to guard) and before admission: a query whose
		// cheapest plan already exceeds the operator's ceiling must not
		// drain bucket tokens on its way to a rejection.
		var plan *PlanJSON
		if s.planner != nil {
			var aerr *RequestError
			if plan, aerr = s.planQuery(nn, req); aerr != nil {
				s.reject(w, aerr)
				return
			}
		}

		dec := s.adm.Admit(est)
		if !dec.Admit {
			s.cShed.Inc()
			cost := costJSON(est)
			retryMS := s.jitterRetryMS(dec.RetryAfter.Milliseconds())
			retryAfter := time.Duration(retryMS) * time.Millisecond
			w.Header().Set("Retry-After", fmt.Sprintf("%d", (retryAfter+time.Second-1)/time.Second))
			writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
				Code:          "overloaded",
				Error:         "predicted cost exceeds the server's admission budget; back off and retry",
				PredictedCost: &cost,
				RetryAfterMS:  retryMS,
			})
			return
		}
		s.cAdmitted.Inc()

		key := batchKey{nn: nn, radius: req.Radius, k: req.K}
		res := s.bat.Do(r.Context(), key, req.Query, s.budgetFor(est))
		resp := QueryResponse{
			Predicted: costJSON(est),
			BatchSize: res.batchSize,
			QueuedMS:  res.queued.Seconds() * 1000,
			Plan:      plan,
		}
		if fo := res.fanout; fo != nil {
			if len(fo.Failed) > 0 && len(fo.Failed) == fo.Queried && len(fo.Skipped) == 0 {
				// A skipped shard has answered — with the empty set, by
				// proof — so only a query that skipped none can have heard
				// from nobody.
				s.cErrors.Inc()
				writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
					Code: "all_shards_failed", Error: res.err.Error(), ShardsFailed: fo.Failed,
				})
				return
			}
			resp.ShardsSkipped, resp.ShardsQueried, resp.ShardsFailed, resp.Hedged = fo.Skipped, fo.Queried, fo.Failed, fo.Hedged
		}
		switch {
		case len(resp.ShardsFailed) > 0:
			s.cPartial.Inc()
			resp.Partial = true
			resp.Degraded = "shards_failed"
		case res.err == nil:
			// Only complete, error-free results may populate the cache: a
			// budget- or deadline-stopped partial set verifies no ball, and
			// a failed dispatch verifies nothing at all.
			if s.cache != nil {
				if nn {
					s.cache.PutNNAt(req.Query, req.K, res.matches, est, cacheEpoch)
				} else {
					s.cache.PutRangeAt(req.Query, req.Radius, res.matches, est, cacheEpoch)
				}
			}
		case errors.Is(res.err, budget.ErrExceeded):
			s.cPartial.Inc()
			resp.Partial = true
			resp.Degraded = "budget_exceeded"
		case errors.Is(res.err, context.DeadlineExceeded), errors.Is(res.err, context.Canceled):
			s.cPartial.Inc()
			resp.Partial = true
			resp.Degraded = "deadline"
		case errors.Is(res.err, ErrShardsFailed):
			// A batch companion lost shards; this call's scatter did not.
		default:
			s.cErrors.Inc()
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{
				Code: "internal", Error: res.err.Error(),
			})
			return
		}
		resp.Matches = matchesJSON(res.matches)
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleStats serves the metrics registry as the canonical obs
// envelope — byte-identical to obs.WriteEnvelope over the same
// registry, the single encoder every metrics emitter shares.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.reject(w, &RequestError{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
			Msg: "stats endpoint accepts GET only"})
		return
	}
	s.refreshRecalGauges()
	s.refreshAdvisorGauges()
	var buf bytes.Buffer
	if err := obs.WriteEnvelope(&buf, s.reg, nil); err != nil {
		s.cErrors.Inc()
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Code: "internal", Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// jitterRetryMS spreads a 429's backoff over [base, base·(1+frac)]:
// clients shed together must not all retry on the same tick against a
// node that is just recovering.
func (s *Server) jitterRetryMS(base int64) int64 {
	if base < 1 {
		base = 1
	}
	span := int64(float64(base) * retryJitterFrac)
	if span <= 0 {
		return base
	}
	s.jmu.Lock()
	j := s.jrng.Int63n(span + 1)
	s.jmu.Unlock()
	return base + j
}

// HealthResponse is the /healthz body. Status distinguishes readiness
// from liveness: "ok" (200) means route to me; "building" (503, from
// BootingHandler) means the index is not built yet; "wedged" (503) means a write has held or
// waited on the writer lock past the threshold, so queries would queue
// behind it — a router's health loop should fail over instead.
type HealthResponse struct {
	Status   string `json:"status"`
	Ready    bool   `json:"ready"`
	Objects  int    `json:"objects,omitempty"`
	Nodes    int    `json:"nodes,omitempty"`
	Height   int    `json:"height,omitempty"`
	PageSize int    `json:"page_size,omitempty"`
	// WedgedMS reports how long the oldest in-flight write has been
	// holding or waiting on the writer lock (only set when wedged).
	WedgedMS float64 `json:"wedged_ms,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.wedgeThresh > 0 {
		if age := s.writes.oldest(s.clock()); age > s.wedgeThresh {
			writeJSON(w, http.StatusServiceUnavailable, HealthResponse{
				Status: "wedged", Ready: true, WedgedMS: age.Seconds() * 1000,
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		Ready:    true,
		Objects:  s.eng.Size(),
		Nodes:    s.eng.NumNodes(),
		Height:   s.eng.Height(),
		PageSize: s.eng.PageSize(),
	})
}

// handleModel serves the engine's wire-exportable model summary — the
// per-shard F̂/L-MCM state a scatter-gather router prices and prunes
// with. Engines without one (plain trees) answer a typed 404.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.reject(w, &RequestError{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
			Msg: "model endpoint accepts GET only"})
		return
	}
	if s.model == nil {
		s.reject(w, &RequestError{Status: http.StatusNotFound, Code: "no_model",
			Msg: "this engine does not export a model summary"})
		return
	}
	raw, err := s.model.ModelSummary()
	if err != nil {
		s.cErrors.Inc()
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Code: "internal", Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

func (s *Server) reject(w http.ResponseWriter, aerr *RequestError) {
	s.cRejected.Inc()
	writeJSON(w, aerr.Status, ErrorResponse{Code: aerr.Code, Error: aerr.Msg, PredictedCost: aerr.cost})
}

// writeJSON answers with v; an encoding error comes after the headers
// are gone, so there is nothing left to report it with.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
