// Package router is the distributed scatter-gather tier: a thin HTTP
// router fronting N shard nodes (mcost-serve -shard-index), each
// holding one partition of a shared deterministic assignment. At boot
// the router fetches every shard's F̂/L-MCM summary from GET /v1/model
// and reconstructs the per-shard predictors locally, so each incoming
// query is priced per shard before any network call — each (shard, k)
// once, through the model's own price table. The predictions and the
// pivots drive everything the tier does: shards that shard.LowerBounds
// proves empty are skipped without being contacted, per-shard
// timeouts are seeded from predicted cost × slack (an expensive shard
// earns a longer leash than a trivial one), and requests are hedged to
// a replica only when the predicted cost is below a threshold —
// duplicating work is only rational when the work is cheap. Failures
// degrade, never cascade: transient errors retry with capped
// exponential backoff and jitter, per-endpoint circuit breakers (fed by
// a /healthz polling loop and query-path outcomes) stop traffic to dead
// nodes, and when a shard stays unreachable the router returns a typed
// partial result ("degraded": true with shards_failed) built from the
// shards that answered — merged in the same canonical order as the
// in-process sharded mcost.Index, so a healthy tier is bit-identical to
// one process holding all the data.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/obs"
	"mcost/internal/server"
	"mcost/internal/shard"
)

// Defaults for Config's zero values.
const (
	DefaultSlackFactor     = 4.0
	DefaultNSPerNodeRead   = 100_000 // 100µs per predicted node read
	DefaultNSPerDistCalc   = 1_000   // 1µs per predicted distance
	DefaultMinShardTimeout = 1 * time.Second
	DefaultMaxShardTimeout = 10 * time.Second
	DefaultMaxRetries      = 2
	DefaultRetryBase       = 10 * time.Millisecond
	DefaultRetryMax        = 200 * time.Millisecond
	DefaultBreakerFails    = 3
	DefaultBreakerCooldown = 1 * time.Second
	DefaultHealthInterval  = 250 * time.Millisecond
	DefaultHealthTimeout   = 500 * time.Millisecond
	DefaultModelTimeout    = 10 * time.Second
	DefaultMaxNodeBody     = 64 << 20
)

// Config assembles a Router.
type Config struct {
	// Shards lists the node endpoints per shard: Shards[i] holds the
	// base URLs ("http://host:port") of the nodes serving shard i,
	// primary first, replicas after. Every shard needs at least one
	// endpoint (required).
	Shards [][]string
	// Client performs all node HTTP calls (nil uses a dedicated client;
	// per-call timeouts come from contexts, not the client).
	Client *http.Client
	// Registry receives the router.* metrics (nil allocates one).
	Registry *obs.Registry
	// MaxBodyBytes caps incoming request bodies (0 picks the server
	// default).
	MaxBodyBytes int64
	// SlackFactor scales predicted cost into the per-shard timeout
	// (0 picks DefaultSlackFactor).
	SlackFactor float64
	// NSPerNodeRead / NSPerDistCalc convert the L-MCM prediction into
	// nanoseconds for timeout seeding (0 picks the defaults).
	NSPerNodeRead float64
	NSPerDistCalc float64
	// MinShardTimeout / MaxShardTimeout clamp the seeded timeout: the
	// floor absorbs network and queueing overhead the cost model does
	// not price; the ceiling bounds how long a shard can stall a
	// response (0 picks the defaults).
	MinShardTimeout time.Duration
	MaxShardTimeout time.Duration
	// HedgeMaxNodes enables prediction-aware hedging: a shard call whose
	// predicted node reads are at or below this threshold is duplicated
	// to a replica (when one is routable) after HedgeDelay, and the
	// first success wins. Zero disables hedging — duplicating expensive
	// work is how overload spreads.
	HedgeMaxNodes float64
	// HedgeDelay is how long the primary runs alone before the hedge
	// fires (0 picks a quarter of the shard's seeded timeout).
	HedgeDelay time.Duration
	// MaxRetries bounds retries after the first attempt of each shard
	// call (negative disables retries; 0 picks DefaultMaxRetries).
	MaxRetries int
	// RetryBase / RetryMax shape the capped exponential backoff between
	// attempts; each sleep gets up to one RetryBase of jitter (0 picks
	// the defaults).
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerFails is the consecutive-failure threshold that opens an
	// endpoint's circuit breaker; BreakerCooldown is how long it stays
	// open before a half-open probe (0 picks the defaults).
	BreakerFails    int
	BreakerCooldown time.Duration
	// HealthInterval paces the /healthz polling loop over every
	// endpoint (0 picks the default; negative disables the loop —
	// breakers then see only query-path outcomes).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (0 picks the default).
	HealthTimeout time.Duration
	// ModelTimeout bounds each boot-time /v1/model fetch (0 picks the
	// default).
	ModelTimeout time.Duration
	// PlanCeiling rejects queries whose cheapest plan — per shard the
	// cheaper of the tree fan-out share and a linear scan of the shard,
	// summed — prices above this many node reads + distance computations,
	// with a typed 422 plan_rejected. Zero disables the ceiling. Requires
	// shard summaries carrying scan_pages (nodes built with the planner).
	PlanCeiling float64
	// Seed seeds the retry jitter (0 seeds from the clock).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SlackFactor <= 0 {
		c.SlackFactor = DefaultSlackFactor
	}
	if c.NSPerNodeRead <= 0 {
		c.NSPerNodeRead = DefaultNSPerNodeRead
	}
	if c.NSPerDistCalc <= 0 {
		c.NSPerDistCalc = DefaultNSPerDistCalc
	}
	if c.MinShardTimeout <= 0 {
		c.MinShardTimeout = DefaultMinShardTimeout
	}
	if c.MaxShardTimeout <= 0 {
		c.MaxShardTimeout = DefaultMaxShardTimeout
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.BreakerFails <= 0 {
		c.BreakerFails = DefaultBreakerFails
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = DefaultHealthTimeout
	}
	if c.ModelTimeout <= 0 {
		c.ModelTimeout = DefaultModelTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = server.DefaultMaxBodyBytes
	}
	return c
}

// endpoint is one node address serving a shard, with its breaker.
type endpoint struct {
	base string
	brk  *breaker
}

// shardState is everything the router knows about one shard: the
// reconstructed L-MCM predictor and the endpoints that can answer for
// it (its bounding ball is Router.balls[index]).
type shardState struct {
	index     int
	model     *core.MTreeModel
	size      int
	scanPages int // 0 when the node's summary predates the planner
	endpoints []*endpoint
	latency   *obs.Hist
}

// allowed returns the endpoints whose breakers admit a request now, in
// configuration order (primary first).
func (st *shardState) allowed(now time.Time) []*endpoint {
	out := make([]*endpoint, 0, len(st.endpoints))
	for _, ep := range st.endpoints {
		if ep.brk.allow(now) {
			out = append(out, ep)
		}
	}
	return out
}

// priceRange is the shard's L-MCM range prediction — the same term the
// node itself computes, because the summary round-trips the model
// exactly.
func (st *shardState) priceRange(radius float64) core.CostEstimate {
	return st.model.RangeL(radius)
}

// priceNN is the shard's L-MCM k-NN prediction with k clamped to the
// shard size, mirroring Shard.priceNN. The models are fetched once at
// boot, so each (shard, k) is integrated once for the router's life.
func (st *shardState) priceNN(k int) core.CostEstimate {
	if k > st.size {
		k = st.size
	}
	if k < 1 {
		return core.CostEstimate{}
	}
	return st.model.NNLCached(k)
}

// priceScan is the shard's linear-scan cost: every page read, every
// object compared. Valid only when the summary carried scan_pages.
func (st *shardState) priceScan() core.CostEstimate {
	return core.CostEstimate{Nodes: float64(st.scanPages), Dists: float64(st.size)}
}

// Router is the scatter-gather tier. Create with New, expose with
// Handler, Close to stop the health loop.
type Router struct {
	cfg         Config
	client      *http.Client
	reg         *obs.Registry
	space       *metric.Space
	decode      server.ObjectDecoder
	shards      []*shardState
	balls       []shard.Ball // per shard, what shard.LowerBounds prunes with
	totalSize   int
	maxNodeBody int64

	jmu  sync.Mutex
	jrng *rand.Rand

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	cRequests      *obs.Counter
	cRejected      *obs.Counter
	cErrors        *obs.Counter
	cDegraded      *obs.Counter
	cShardCalls    *obs.Counter
	cShardFailures *obs.Counter
	cShardsSkipped *obs.Counter
	cRetries       *obs.Counter
	cHedges        *obs.Counter
	cHedgesWon     *obs.Counter
	cHedgesLost    *obs.Counter
	cBreakerOpens  *obs.Counter
	cPlanTree      *obs.Counter
	cPlanScan      *obs.Counter
	cPlanRejected  *obs.Counter

	// canPlan is true when every shard summary carried scan_pages, so
	// the router can price the scan side of each shard's plan.
	canPlan bool
}

// New fetches every shard's model summary, validates that the summaries
// describe one coherent assignment, reconstructs the per-shard
// predictors, and starts the health loop. It fails if any shard has no
// reachable endpoint — a router that cannot price every shard cannot
// promise the canonical merge.
func New(ctx context.Context, cfg Config) (_ *Router, err error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	for i, eps := range cfg.Shards {
		if len(eps) == 0 {
			return nil, fmt.Errorf("router: shard %d has no endpoints", i)
		}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: newTransport()}
		// A boot loop calls New until the nodes are up; a failed attempt
		// must not leave its connections behind.
		defer func() {
			if err != nil {
				client.CloseIdleConnections()
			}
		}()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rt := &Router{
		cfg:            cfg,
		client:         client,
		reg:            reg,
		maxNodeBody:    DefaultMaxNodeBody,
		jrng:           rand.New(rand.NewSource(seed)),
		stop:           make(chan struct{}),
		cRequests:      reg.Counter("router.requests"),
		cRejected:      reg.Counter("router.rejected"),
		cErrors:        reg.Counter("router.errors"),
		cDegraded:      reg.Counter("router.degraded"),
		cShardCalls:    reg.Counter("router.shard_calls"),
		cShardFailures: reg.Counter("router.shard_failures"),
		cShardsSkipped: reg.Counter("router.shards_skipped"),
		cRetries:       reg.Counter("router.retries"),
		cHedges:        reg.Counter("router.hedges"),
		cHedgesWon:     reg.Counter("router.hedges_won"),
		cHedgesLost:    reg.Counter("router.hedges_lost"),
		cBreakerOpens:  reg.Counter("router.breaker_opens"),
		cPlanTree:      reg.Counter("router.plan_tree"),
		cPlanScan:      reg.Counter("router.plan_scan"),
		cPlanRejected:  reg.Counter("router.plan_rejected"),
		canPlan:        true,
	}

	var first *shard.Summary
	for i, eps := range cfg.Shards {
		sum, err := rt.fetchShardSummary(ctx, eps)
		if err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		if sum.Shard != i {
			return nil, fmt.Errorf("router: endpoint group %d serves shard %d; check -shard-index wiring", i, sum.Shard)
		}
		if sum.Shards != len(cfg.Shards) {
			return nil, fmt.Errorf("router: shard %d was built for %d shards, router fronts %d", i, sum.Shards, len(cfg.Shards))
		}
		if first == nil {
			first = sum
			space, err := metric.FromSpec(sum.Space)
			if err != nil {
				return nil, fmt.Errorf("router: shard %d: %w", i, err)
			}
			rt.space = space
			size := sum.Dim
			if sum.ObjectKind == "string" {
				size = int(space.Bound) // a Hamming space's d+ is its string length
			}
			if rt.decode, err = server.DecoderForKind(space, sum.ObjectKind, size); err != nil {
				return nil, fmt.Errorf("router: shard %d: %w", i, err)
			}
		} else if sum.Space != first.Space || sum.ObjectKind != first.ObjectKind ||
			sum.Dim != first.Dim || sum.Assign != first.Assign {
			return nil, fmt.Errorf("router: shard %d disagrees with shard 0 about the space or assignment", i)
		}
		model, err := sum.Model()
		if err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		pivot, err := sum.PivotObject()
		if err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		if i > 0 && (pivot == nil) != (rt.balls[0].Pivot == nil) {
			// The hyperplane bound compares every pivot distance with the
			// nearest one: pivots are all there or all absent.
			return nil, fmt.Errorf("router: shard %d disagrees with shard 0 about carrying a pivot", i)
		}
		rt.balls = append(rt.balls, shard.Ball{Pivot: pivot, Radius: sum.Radius})
		st := &shardState{
			index:     i,
			model:     model,
			size:      sum.Size,
			scanPages: sum.ScanPages,
			latency:   reg.Hist(fmt.Sprintf("router.shard_latency_ms.s%d", i), 40, 0, 2000),
		}
		if sum.ScanPages <= 0 {
			rt.canPlan = false
		}
		for _, base := range eps {
			st.endpoints = append(st.endpoints, &endpoint{
				base: base,
				brk:  newBreaker(cfg.BreakerFails, cfg.BreakerCooldown, rt.cBreakerOpens),
			})
		}
		rt.shards = append(rt.shards, st)
		rt.totalSize += sum.Size
	}

	if cfg.HealthInterval > 0 {
		rt.wg.Add(1)
		go rt.healthLoop()
	}
	return rt, nil
}

// idleConnsPerShard is the keep-alive pool the router holds per node
// address. http.DefaultTransport keeps two: with more requests in
// flight than that, every further shard call dials a connection and
// throws it away on completion. 64 is well above the concurrency the
// cluster smoke (8 workers) and the benchmark (2 clients) drive; beyond
// it the router still works, it only stops reusing.
const idleConnsPerShard = 64

// newTransport is the transport of the router's own client. Bodies are
// small JSON between processes that are usually a rack apart at most;
// compressing them costs more than sending them.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: idleConnsPerShard,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// fetchShardSummary tries each endpoint of a shard group until one
// serves /v1/model.
func (rt *Router) fetchShardSummary(ctx context.Context, eps []string) (*shard.Summary, error) {
	var lastErr error
	for _, base := range eps {
		sum, err := fetchSummary(ctx, rt.client, base, rt.cfg.ModelTimeout)
		if err == nil {
			return sum, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Close stops the health loop and drops the idle node connections.
// In-flight requests finish on their own.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Shards returns the number of shards the router fronts.
func (rt *Router) Shards() int { return len(rt.shards) }

// Size returns the total object count across shards.
func (rt *Router) Size() int { return rt.totalSize }

// Handler returns the route mux.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/range", rt.handleQuery(false))
	mux.HandleFunc("/v1/nn", rt.handleQuery(true))
	mux.HandleFunc("/v1/stats", rt.handleStats)
	mux.HandleFunc("/healthz", rt.handleHealth)
	return mux
}

// healthLoop probes every endpoint's /healthz on a fixed cadence and
// feeds the outcomes to the breakers: a dead node's breaker opens even
// with no query traffic, and a recovered node closes within one
// interval.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, st := range rt.shards {
		for _, ep := range st.endpoints {
			wg.Add(1)
			go func(ep *endpoint) {
				defer wg.Done()
				if probeHealth(context.Background(), rt.client, ep.base, rt.cfg.HealthTimeout) {
					ep.brk.success()
				} else {
					ep.brk.failure(time.Now())
				}
			}(ep)
		}
	}
	wg.Wait()
}

// Match is one merged result on the router's wire: the object bytes are
// exactly what the shard node returned.
type Match struct {
	OID      uint64          `json:"oid"`
	Distance float64         `json:"distance"`
	Object   json.RawMessage `json:"object"`
}

// QueryResponse is the 200 body of the router's /v1/range and /v1/nn.
type QueryResponse struct {
	Matches []Match `json:"matches"`
	// Partial mirrors a node-level degradation (budget or deadline
	// stop inside a shard): every match is valid, completeness within a
	// shard was traded away.
	Partial bool `json:"partial,omitempty"`
	// Degraded reports shard-level loss: one or more shards failed
	// every attempt and their results are missing. ShardsFailed lists
	// them; ShardsSkipped lists shards the pivot lower bound proved
	// empty (a proof, not a degradation: a skipped shard has answered).
	Degraded      bool  `json:"degraded,omitempty"`
	ShardsFailed  []int `json:"shards_failed,omitempty"`
	ShardsSkipped []int `json:"shards_skipped,omitempty"`
	ShardsQueried int   `json:"shards_queried"`
	// Hedged counts shard calls that fired a hedge for this request.
	Hedged int `json:"hedged,omitempty"`
	// Predicted is the summed L-MCM prediction over all shards — the
	// same figure the in-process sharded Index quotes as its tree price.
	Predicted server.CostJSON `json:"predicted"`
	// Plan is the router's per-shard plan from the round-tripped models
	// (absent when any shard's summary predates the planner).
	Plan *RoutePlan `json:"plan,omitempty"`
}

// RoutePlan is the router's breakdown-aware view of one query: per
// shard, the cheaper of the tree fan-out share and a linear scan of
// that shard, decided from the round-tripped models alone.
type RoutePlan struct {
	// Engines[i] is shard i's cheaper engine, "tree" or "scan".
	Engines []string `json:"engines"`
	// PredictedTree and PredictedScan are the summed all-tree and
	// all-scan alternatives; Cheapest sums each shard's cheaper side —
	// the figure the plan ceiling is enforced against.
	PredictedTree server.CostJSON `json:"predicted_tree"`
	PredictedScan server.CostJSON `json:"predicted_scan"`
	Cheapest      server.CostJSON `json:"cheapest"`
}

// errorBody is every non-200 router body.
type errorBody struct {
	Code         string `json:"code"`
	Error        string `json:"error"`
	ShardsFailed []int  `json:"shards_failed,omitempty"`
}

// shardPlan is one shard's share of a scatter: what to send, how long
// to wait, and whether the predicted cost earns a hedge.
type shardPlan struct {
	st      *shardState
	body    []byte
	est     core.CostEstimate
	timeout time.Duration
}

// timeoutFor seeds a shard timeout from its predicted cost: cost
// converted to nanoseconds, scaled by slack, clamped.
func (rt *Router) timeoutFor(est core.CostEstimate) time.Duration {
	ns := (est.Nodes*rt.cfg.NSPerNodeRead + est.Dists*rt.cfg.NSPerDistCalc) * rt.cfg.SlackFactor
	d := time.Duration(ns) * time.Nanosecond
	if d < rt.cfg.MinShardTimeout {
		d = rt.cfg.MinShardTimeout
	}
	if d > rt.cfg.MaxShardTimeout {
		d = rt.cfg.MaxShardTimeout
	}
	return d
}

// handleQuery prices, prunes, scatters, and gathers one query.
func (rt *Router) handleQuery(nn bool) http.HandlerFunc {
	path := "/v1/range"
	if nn {
		path = "/v1/nn"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rt.cRequests.Inc()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			rt.reject(w, http.StatusMethodNotAllowed, "method_not_allowed", "query endpoints accept POST only")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
		req, aerr := server.DecodeQueryRequest(r.Body, nn, rt.decode, rt.totalSize)
		if aerr != nil {
			rt.reject(w, aerr.Status, aerr.Code, aerr.Msg)
			return
		}

		// Price every shard and plan the scatter. The response quotes the
		// full sum (what the in-process engine would predict); skipped
		// shards still contribute to the quote but not to the fan-out.
		var total, totalScan, cheapest core.CostEstimate
		var planEngines []string
		var skipped []int
		var plans []shardPlan
		var lb []float64 // k-NN has no radius to compare a bound with
		if !nn {
			lb = shard.LowerBounds(rt.space, req.Query, rt.balls)
		}
		for _, st := range rt.shards {
			var est core.CostEstimate
			if nn {
				est = st.priceNN(req.K)
			} else {
				est = st.priceRange(req.Radius)
			}
			total.Nodes += est.Nodes
			total.Dists += est.Dists
			if rt.canPlan {
				// Per-shard plan choice from the round-tripped models: the
				// cheaper of this shard's tree share and its linear scan.
				scan := st.priceScan()
				totalScan.Nodes += scan.Nodes
				totalScan.Dists += scan.Dists
				if est.Nodes+est.Dists <= scan.Nodes+scan.Dists {
					cheapest.Nodes += est.Nodes
					cheapest.Dists += est.Dists
					planEngines = append(planEngines, "tree")
					rt.cPlanTree.Inc()
				} else {
					cheapest.Nodes += scan.Nodes
					cheapest.Dists += scan.Dists
					planEngines = append(planEngines, "scan")
					rt.cPlanScan.Inc()
				}
			}
			if !nn && lb[st.index] > req.Radius {
				skipped = append(skipped, st.index)
				rt.cShardsSkipped.Inc()
				continue
			}
			body, err := shardBody(req, nn, st.size)
			if err != nil {
				rt.cErrors.Inc()
				rt.reject(w, http.StatusInternalServerError, "internal", err.Error())
				return
			}
			plans = append(plans, shardPlan{st: st, body: body, est: est, timeout: rt.timeoutFor(est)})
		}
		if rt.canPlan && rt.cfg.PlanCeiling > 0 && cheapest.Nodes+cheapest.Dists > rt.cfg.PlanCeiling {
			rt.cPlanRejected.Inc()
			rt.reject(w, http.StatusUnprocessableEntity, "plan_rejected",
				fmt.Sprintf("cheapest plan prices at %.0f node reads + distance computations across %d shards, above the ceiling %.0f",
					cheapest.Nodes+cheapest.Dists, len(rt.shards), rt.cfg.PlanCeiling))
			return
		}

		resp := QueryResponse{
			Matches:       []Match{},
			ShardsSkipped: skipped,
			ShardsQueried: len(plans),
			Predicted:     server.CostJSON{NodeReads: total.Nodes, DistCalcs: total.Dists},
		}
		if rt.canPlan {
			resp.Plan = &RoutePlan{
				Engines:       planEngines,
				PredictedTree: server.CostJSON{NodeReads: total.Nodes, DistCalcs: total.Dists},
				PredictedScan: server.CostJSON{NodeReads: totalScan.Nodes, DistCalcs: totalScan.Dists},
				Cheapest:      server.CostJSON{NodeReads: cheapest.Nodes, DistCalcs: cheapest.Dists},
			}
		}
		if len(plans) == 0 {
			rt.writeJSON(w, http.StatusOK, resp)
			return
		}

		// Scatter. Each shard runs its own hedge/retry state machine;
		// results land in plan order, which is shard order.
		results := make([]*nodeResponse, len(plans))
		failures := make([]error, len(plans))
		hedged := make([]int, len(plans))
		var wg sync.WaitGroup
		for pi := range plans {
			wg.Add(1)
			go func(pi int) {
				defer wg.Done()
				results[pi], hedged[pi], failures[pi] = rt.queryShard(r.Context(), path, plans[pi])
			}(pi)
		}
		wg.Wait()

		// Gather. Range results concatenate in shard order; k-NN results
		// merge by (distance, OID) and truncate — the canonical orders the
		// in-process Set uses, so the healthy path is bit-identical.
		var failed []int
		for pi, plan := range plans {
			if failures[pi] != nil {
				failed = append(failed, plan.st.index)
				continue
			}
			res := results[pi]
			if res.Partial {
				resp.Partial = true
			}
			resp.Hedged += hedged[pi]
			for _, m := range res.Matches {
				resp.Matches = append(resp.Matches, Match{OID: m.OID, Distance: m.Distance, Object: m.Object})
			}
		}
		if len(failed) == len(plans) && len(skipped) == 0 {
			// A skipped shard has answered — with the empty set, by proof —
			// so only a query that skipped none can have heard from nobody.
			rt.cErrors.Inc()
			rt.writeJSON(w, http.StatusServiceUnavailable, errorBody{
				Code:         "all_shards_failed",
				Error:        fmt.Sprintf("all %d queried shards failed; first error: %v", len(plans), failures[0]),
				ShardsFailed: failed,
			})
			return
		}
		if nn {
			sort.Slice(resp.Matches, func(i, j int) bool {
				if resp.Matches[i].Distance != resp.Matches[j].Distance {
					return resp.Matches[i].Distance < resp.Matches[j].Distance
				}
				return resp.Matches[i].OID < resp.Matches[j].OID
			})
			if len(resp.Matches) > req.K {
				resp.Matches = resp.Matches[:req.K]
			}
		}
		if len(failed) > 0 {
			resp.Degraded = true
			resp.ShardsFailed = failed
			rt.cDegraded.Inc()
		}
		rt.writeJSON(w, http.StatusOK, resp)
	}
}

// shardBody builds the per-shard request body. The query bytes are
// forwarded verbatim; a k above the shard's size is clamped to it —
// same answer, and it keeps the node's own MaxK validation happy.
func shardBody(req server.QueryRequest, nn bool, shardSize int) ([]byte, error) {
	if nn {
		k := req.K
		if k > shardSize {
			k = shardSize
		}
		return json.Marshal(struct {
			Query json.RawMessage `json:"query"`
			K     int             `json:"k"`
		}{req.Raw, k})
	}
	return json.Marshal(struct {
		Query  json.RawMessage `json:"query"`
		Radius float64         `json:"radius"`
	}{req.Raw, req.Radius})
}

var errNoEndpoints = &nodeError{code: "breaker_open", msg: "no routable endpoint (all breakers open)", transient: true}

// queryShard runs one shard's share to completion: hedged first
// attempt, then retries with capped exponential backoff over whichever
// endpoints the breakers still admit. Returns the node response, how
// many hedges fired, and the final error if every attempt failed.
func (rt *Router) queryShard(ctx context.Context, path string, p shardPlan) (*nodeResponse, int, error) {
	var lastErr error = errNoEndpoints
	hedges := 0
	for attempt := 0; attempt <= rt.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			rt.cRetries.Inc()
			if !rt.backoff(ctx, attempt) {
				return nil, hedges, ctx.Err()
			}
		}
		eps := p.st.allowed(time.Now())
		if len(eps) == 0 {
			lastErr = errNoEndpoints
			continue
		}
		primary := eps[attempt%len(eps)]
		var hedge *endpoint
		if len(eps) >= 2 && rt.cfg.HedgeMaxNodes > 0 && p.est.Nodes <= rt.cfg.HedgeMaxNodes {
			hedge = eps[(attempt+1)%len(eps)]
		}
		res, fired, err := rt.attemptHedged(ctx, path, p, primary, hedge)
		hedges += fired
		if err == nil {
			return res, hedges, nil
		}
		lastErr = err
		var nerr *nodeError
		if errors.As(err, &nerr) && !nerr.transient {
			break
		}
		if ctx.Err() != nil {
			return nil, hedges, ctx.Err()
		}
	}
	return nil, hedges, lastErr
}

// backoff sleeps the capped exponential delay (plus jitter) before
// retry number attempt; false means the request context died first.
func (rt *Router) backoff(ctx context.Context, attempt int) bool {
	d := rt.cfg.RetryBase << (attempt - 1)
	if d > rt.cfg.RetryMax {
		d = rt.cfg.RetryMax
	}
	rt.jmu.Lock()
	j := time.Duration(rt.jrng.Int63n(int64(rt.cfg.RetryBase) + 1))
	rt.jmu.Unlock()
	t := time.NewTimer(d + j)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// attemptHedged runs one attempt against the primary endpoint, firing
// the hedge to a replica after the hedge delay if the primary has not
// answered. First success wins and cancels the loser; a canceled loser
// is not charged to its breaker. Returns (response, hedgesFired, err).
func (rt *Router) attemptHedged(ctx context.Context, path string, p shardPlan, primary, hedge *endpoint) (*nodeResponse, int, error) {
	type report struct {
		res    *nodeResponse
		err    *nodeError
		hedged bool
		lost   bool // canceled because the other leg won
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan report, 2)
	run := func(ep *endpoint, hedgedLeg bool) {
		start := time.Now()
		res, nerr := rt.postQuery(actx, ep.base, path, p.body, p.timeout)
		if nerr != nil && actx.Err() != nil && ctx.Err() == nil {
			// The other leg won and we were canceled: not a node failure.
			ch <- report{hedged: hedgedLeg, lost: true}
			return
		}
		p.st.latency.Observe(time.Since(start).Seconds() * 1000)
		rt.cShardCalls.Inc()
		if nerr != nil {
			ep.brk.failure(time.Now())
			rt.cShardFailures.Inc()
		} else {
			ep.brk.success()
		}
		ch <- report{res: res, err: nerr, hedged: hedgedLeg}
	}

	go run(primary, false)
	outstanding := 1
	fired := 0
	var hedgeC <-chan time.Time
	if hedge != nil {
		delay := rt.cfg.HedgeDelay
		if delay <= 0 {
			delay = p.timeout / 4
		}
		timer := time.NewTimer(delay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var firstErr *nodeError
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			rt.cHedges.Inc()
			fired = 1
			go run(hedge, true)
			outstanding++
		case rep := <-ch:
			if rep.lost {
				outstanding--
				if outstanding == 0 {
					// Only reachable when both legs raced to the cancel; the
					// winner's report was already consumed.
					return nil, fired, firstErr
				}
				continue
			}
			if rep.err == nil {
				if fired == 1 {
					if rep.hedged {
						rt.cHedgesWon.Inc()
					} else {
						rt.cHedgesLost.Inc()
					}
				}
				cancel()
				return rep.res, fired, nil
			}
			if firstErr == nil {
				firstErr = rep.err
			}
			outstanding--
			if outstanding == 0 {
				return nil, fired, firstErr
			}
		}
	}
}

// HealthResponse is the router's /healthz body: per-endpoint breaker
// states grouped by shard.
type HealthResponse struct {
	Status  string `json:"status"`
	Shards  int    `json:"shards"`
	Objects int    `json:"objects"`
	// Breakers[i][j] is the state of shard i's endpoint j: "closed",
	// "open", or "half-open".
	Breakers [][]string `json:"breakers"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:  "ok",
		Shards:  len(rt.shards),
		Objects: rt.totalSize,
	}
	for _, st := range rt.shards {
		states := make([]string, len(st.endpoints))
		for j, ep := range st.endpoints {
			states[j] = ep.brk.snapshot().String()
		}
		resp.Breakers = append(resp.Breakers, states)
	}
	rt.writeJSON(w, http.StatusOK, resp)
}

// handleStats serves the router.* registry as the canonical obs
// envelope, same as the node servers.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		rt.reject(w, http.StatusMethodNotAllowed, "method_not_allowed", "stats endpoint accepts GET only")
		return
	}
	var buf bytes.Buffer
	if err := obs.WriteEnvelope(&buf, rt.reg, nil); err != nil {
		rt.cErrors.Inc()
		rt.reject(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (rt *Router) reject(w http.ResponseWriter, status int, code, msg string) {
	if status != http.StatusInternalServerError {
		rt.cRejected.Inc()
	}
	rt.writeJSON(w, status, errorBody{Code: code, Error: msg})
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
