// Package router is the distributed scatter-gather tier: an engine over
// N shard nodes (mcost-serve -shard-index), each holding one partition
// of a shared deterministic assignment, which mcost-router serves
// through internal/server like any other engine. At boot the router
// fetches every shard's F̂/L-MCM summary from GET /v1/model and
// reconstructs the per-shard predictors locally, so each query is
// priced per shard before any network call — each (shard, k) once,
// through the model's own price table. The predictions and the pivots
// drive everything the tier does: shards that shard.LowerBounds proves
// empty are skipped without being contacted, per-shard timeouts are
// seeded from predicted cost × slack (an expensive shard earns a longer
// leash than a trivial one), and requests are hedged to a replica only
// when the predicted cost is below a threshold — duplicating work is
// only rational when the work is cheap. Failures degrade, never
// cascade: transient errors retry with capped exponential backoff and
// jitter, per-endpoint circuit breakers (fed by a /healthz polling loop
// and query-path outcomes) stop traffic to dead nodes, and when a shard
// stays unreachable the query returns server.ErrShardsFailed with the
// merge of the shards that answered — in the same canonical order as
// the in-process sharded mcost.Index, so a healthy tier is
// bit-identical to one process holding all the data.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"mcost/internal/advisor"
	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/server"
	"mcost/internal/shard"
)

// Defaults for Config's zero values.
const (
	DefaultSlackFactor     = 4.0
	DefaultMinShardTimeout = 1 * time.Second
	DefaultMaxShardTimeout = 10 * time.Second
	DefaultMaxRetries      = 2
	DefaultRetryBase       = 10 * time.Millisecond
	DefaultRetryMax        = 200 * time.Millisecond
	DefaultBreakerFails    = 3
	DefaultBreakerCooldown = 1 * time.Second
	DefaultHealthInterval  = 250 * time.Millisecond
	DefaultHealthTimeout   = 500 * time.Millisecond
)

const (
	// nsPerNodeRead and nsPerDistCalc convert the L-MCM prediction into
	// nanoseconds for timeout seeding.
	nsPerNodeRead = 100_000 // 100µs per predicted node read
	nsPerDistCalc = 1_000   // 1µs per predicted distance
	// modelTimeout bounds each boot-time /v1/model fetch.
	modelTimeout = 10 * time.Second
)

// Config assembles a Router.
type Config struct {
	// Shards lists the node endpoints per shard: Shards[i] holds the
	// base URLs ("http://host:port") of the nodes serving shard i,
	// primary first, replicas after. Every shard needs at least one
	// endpoint (required).
	Shards [][]string
	// Registry receives the router.* metrics (nil allocates one).
	Registry *obs.Registry
	// SlackFactor scales predicted cost into the per-shard timeout
	// (0 picks DefaultSlackFactor).
	SlackFactor float64
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
	// Seed seeds the retry jitter (0 seeds from the clock).
	Seed int64
}

func (c Config) withDefaults() Config {
	c.SlackFactor = positiveOr(c.SlackFactor, DefaultSlackFactor)
	c.MinShardTimeout = positiveOr(c.MinShardTimeout, DefaultMinShardTimeout)
	c.MaxShardTimeout = positiveOr(c.MaxShardTimeout, DefaultMaxShardTimeout)
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	c.MaxRetries = max(c.MaxRetries, 0)
	c.RetryBase = positiveOr(c.RetryBase, DefaultRetryBase)
	c.RetryMax = positiveOr(c.RetryMax, DefaultRetryMax)
	c.BreakerFails = positiveOr(c.BreakerFails, DefaultBreakerFails)
	c.BreakerCooldown = positiveOr(c.BreakerCooldown, DefaultBreakerCooldown)
	if c.HealthInterval == 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	c.HealthTimeout = positiveOr(c.HealthTimeout, DefaultHealthTimeout)
	return c
}

// positiveOr is v, or def when v is zero or negative.
func positiveOr[T int | float64 | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// endpoint is one node serving a shard: its /v1 client and its
// breaker.
type endpoint struct {
	cl  *server.Client
	brk *breaker
}

// shardState is everything the router knows about one shard: the
// reconstructed L-MCM predictor and the endpoints that can answer for
// it (its bounding ball is Router.balls[index]).
type shardState struct {
	index     int
	model     *core.MTreeModel
	size      int
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

// price is the shard's L-MCM prediction — the same term the node itself
// computes, because the summary round-trips the model exactly. A k-NN's
// k is clamped to the shard size, mirroring Shard.priceNN; the models
// are fetched once at boot, so each (shard, k) is integrated once for
// the router's life.
func (st *shardState) price(nn bool, radius float64, k int) core.CostEstimate {
	if !nn {
		return st.model.RangeL(radius)
	}
	if k = min(k, st.size); k < 1 {
		return core.CostEstimate{}
	}
	return st.model.NNLCached(k)
}

// Router is the scatter-gather engine over remote shards: a
// server.Engine and server.Planner. Create with New, serve through
// server.New, Close to stop the health loop.
type Router struct {
	cfg       Config
	client    *http.Client
	reg       *obs.Registry
	space     *metric.Space
	decode    server.ObjectDecoder
	shards    []*shardState
	balls     []shard.Ball // per shard, what shard.LowerBounds prunes with
	totalSize int
	numNodes  int
	height    int
	scan      core.CostEstimate // a linear scan of every shard

	jmu  sync.Mutex
	jrng *rand.Rand

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	cRequests      *obs.Counter
	cDegraded      *obs.Counter
	cShardCalls    *obs.Counter
	cShardFailures *obs.Counter
	cShardsSkipped *obs.Counter
	cRetries       *obs.Counter
	cHedges        *obs.Counter
	cHedgesWon     *obs.Counter
	cHedgesLost    *obs.Counter
	cBreakerOpens  *obs.Counter
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
	client := &http.Client{Transport: newTransport()}
	// A boot loop calls New until the nodes are up; a failed attempt
	// must not leave its connections behind.
	defer func() {
		if err != nil {
			client.CloseIdleConnections()
		}
	}()
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
		jrng:           rand.New(rand.NewSource(seed)),
		stop:           make(chan struct{}),
		cRequests:      reg.Counter("router.requests"),
		cDegraded:      reg.Counter("router.degraded"),
		cShardCalls:    reg.Counter("router.shard_calls"),
		cShardFailures: reg.Counter("router.shard_failures"),
		cShardsSkipped: reg.Counter("router.shards_skipped"),
		cRetries:       reg.Counter("router.retries"),
		cHedges:        reg.Counter("router.hedges"),
		cHedgesWon:     reg.Counter("router.hedges_won"),
		cHedgesLost:    reg.Counter("router.hedges_lost"),
		cBreakerOpens:  reg.Counter("router.breaker_opens"),
	}

	var first *shard.Summary
	for i, bases := range cfg.Shards {
		var eps []*endpoint
		for j, base := range bases {
			gauge := reg.Gauge(fmt.Sprintf("router.breaker.s%d.e%d", i, j))
			eps = append(eps, &endpoint{
				cl:  server.NewClient(base, client),
				brk: newBreaker(cfg.BreakerFails, cfg.BreakerCooldown, rt.cBreakerOpens, gauge),
			})
		}
		sum, err := fetchSummary(ctx, bases, eps)
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
		rt.shards = append(rt.shards, &shardState{
			index:     i,
			model:     model,
			size:      sum.Size,
			endpoints: eps,
			latency:   reg.Hist(fmt.Sprintf("router.shard_latency_ms.s%d", i), 40, 0, 2000),
		})
		rt.totalSize += sum.Size
		for _, l := range sum.Levels {
			rt.numNodes += l.Nodes
		}
		rt.height = max(rt.height, sum.Height)
		rt.scan.Nodes += float64(sum.ScanPages)
		rt.scan.Dists += float64(sum.Size)
	}

	if cfg.HealthInterval > 0 {
		rt.wg.Add(1)
		go rt.healthLoop()
	}
	return rt, nil
}

// fetchSummary GETs /v1/model from each endpoint of a shard group, in
// order, until one serves the shard summary.
func fetchSummary(ctx context.Context, bases []string, eps []*endpoint) (*shard.Summary, error) {
	var lastErr error
	for j, ep := range eps {
		mctx, cancel := context.WithTimeout(ctx, modelTimeout)
		sum, err := ep.cl.Model(mctx)
		cancel()
		if err == nil {
			return sum, nil
		}
		lastErr = fmt.Errorf("%s/v1/model: %w", bases[j], err)
	}
	return nil, lastErr
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

// Close stops the health loop and drops the idle node connections.
// In-flight requests finish on their own.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
	rt.client.CloseIdleConnections()
}

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Decoder returns the query decoder the shards' space and object kind
// call for.
func (rt *Router) Decoder() server.ObjectDecoder { return rt.decode }

// Size returns the total object count across shards.
func (rt *Router) Size() int { return rt.totalSize }

// NumNodes returns the tree nodes across shards, as of their summaries.
func (rt *Router) NumNodes() int { return rt.numNodes }

// Height returns the tallest shard tree's height.
func (rt *Router) Height() int { return rt.height }

// PageSize returns 0: the summaries do not carry the nodes' page size.
func (rt *Router) PageSize() int { return 0 }

// PriceRange and PriceNN sum the shards' predictions in shard order,
// skipped shards included — the figure the in-process sharded Index
// quotes as its tree price.
func (rt *Router) PriceRange(radius float64) core.CostEstimate { return rt.price(false, radius, 0) }
func (rt *Router) PriceNN(k int) core.CostEstimate             { return rt.price(true, 0, k) }

func (rt *Router) price(nn bool, radius float64, k int) core.CostEstimate {
	var total core.CostEstimate
	for _, st := range rt.shards {
		est := st.price(nn, radius, k)
		total.Nodes += est.Nodes
		total.Dists += est.Dists
	}
	return total
}

// PlanRange and PlanNN quote the one plan the nodes can run: a node
// serves only its tree, so the query is the tree fan-out, priced beside
// a linear scan of every shard. The server's plan ceiling is then
// enforced against the fan-out's summed tree price.
func (rt *Router) PlanRange(radius float64) (advisor.Decision, error) {
	return rt.plan(rt.PriceRange(radius)), nil
}

func (rt *Router) PlanNN(k int) (advisor.Decision, error) { return rt.plan(rt.PriceNN(k)), nil }

func (rt *Router) plan(tree core.CostEstimate) advisor.Decision {
	return advisor.Decision{
		Engine:        advisor.EngineFanout,
		PredictedTree: tree,
		PredictedScan: rt.scan,
		Reason:        "shard nodes run only their trees; the scan is priced for comparison",
	}
}

// RangeBatchTraced and NNBatchTraced scatter each query of the batch to
// its shards and gather the answers; tr receives one obs.Fanout per
// query. The budget is not forwarded: each node budgets its own share
// from its own prediction. A node's budget or deadline partial returns
// budget.ErrExceeded or context.DeadlineExceeded with the matches, shard
// loss server.ErrShardsFailed with the surviving shards' merge.
func (rt *Router) RangeBatchTraced(ctx context.Context, qs []metric.Object, radius float64, _ budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	return rt.scatter(ctx, qs, false, radius, 0, tr)
}

func (rt *Router) NNBatchTraced(ctx context.Context, qs []metric.Object, k int, _ budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	return rt.scatter(ctx, qs, true, 0, k, tr)
}

func (rt *Router) scatter(ctx context.Context, qs []metric.Object, nn bool, radius float64, k int, tr *obs.Trace) ([][]mtree.Match, error) {
	fos := make([]obs.Fanout, len(qs)) // one slot per concurrent query
	if tr != nil {
		tr.Fanouts = fos
	}
	sets := make([][]mtree.Match, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets[i], errs[i] = rt.query(ctx, q, nn, radius, k, &fos[i])
		}()
	}
	wg.Wait()
	return sets, errors.Join(errs...)
}

// shardCall is one shard's share of a scatter: what to send, how long
// to wait, and the predicted cost that decides whether it earns a hedge;
// then the answer, the hedges fired, and the error if every attempt
// failed.
type shardCall struct {
	st      *shardState
	q       json.RawMessage // encoded once for every shard and attempt
	nn      bool
	radius  float64
	k       int // clamped to the shard's size
	est     core.CostEstimate
	timeout time.Duration

	res    *server.QueryResponse
	hedged int
	err    error
}

// send runs one attempt of c at ep; the shard's timeout bounds it.
func (c *shardCall) send(ctx context.Context, ep *endpoint) (*server.QueryResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	if c.nn {
		return ep.cl.NN(ctx, c.q, c.k)
	}
	return ep.cl.Range(ctx, c.q, c.radius)
}

// query prices, prunes, scatters and gathers one query, recording what
// it did in fo.
func (rt *Router) query(ctx context.Context, q metric.Object, nn bool, radius float64, k int, fo *obs.Fanout) ([]mtree.Match, error) {
	rt.cRequests.Inc()
	raw, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	var lb []float64 // k-NN has no radius to compare a bound with
	if !nn {
		lb = shard.LowerBounds(rt.space, q, rt.balls)
	}
	var calls []shardCall
	for _, st := range rt.shards {
		if !nn && lb[st.index] > radius {
			fo.Skipped = append(fo.Skipped, st.index)
			rt.cShardsSkipped.Inc()
			continue
		}
		// A k-NN's k goes clamped to the shard's size: same answer, and
		// it keeps the node's own MaxK validation happy.
		est := st.price(nn, radius, k)
		calls = append(calls, shardCall{st: st, q: raw, nn: nn, radius: radius, k: min(k, st.size),
			est: est, timeout: rt.timeoutFor(est)})
	}
	fo.Queried = len(calls)

	// Scatter. Each shard runs its own hedge/retry state machine;
	// results land in call order, which is shard order.
	var wg sync.WaitGroup
	for ci := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &calls[ci]
			c.res, c.hedged, c.err = rt.queryShard(ctx, *c)
		}()
	}
	wg.Wait()

	// Gather. Range results concatenate in shard order; k-NN results
	// merge by (distance, OID) and truncate — the canonical orders the
	// in-process Set uses, so the healthy path is bit-identical.
	matches := []mtree.Match{}
	var partial, firstErr error
	for _, c := range calls {
		if c.err != nil {
			fo.Failed = append(fo.Failed, c.st.index)
			if firstErr == nil {
				firstErr = c.err
			}
			continue
		}
		fo.Hedged += c.hedged
		switch {
		case !c.res.Partial:
		case c.res.Degraded == "deadline":
			partial = context.DeadlineExceeded
		default:
			partial = budget.ErrExceeded
		}
		for _, m := range c.res.Matches {
			matches = append(matches, mtree.Match{OID: m.OID, Distance: m.Distance, Object: m.Object})
		}
	}
	if nn {
		matches = shard.MergeK(matches, nil, k)
	}
	if len(fo.Failed) > 0 {
		if len(fo.Failed) < len(calls) || len(fo.Skipped) > 0 {
			rt.cDegraded.Inc()
		}
		return matches, fmt.Errorf("%w: %d of %d queried shards failed; first error: %v",
			server.ErrShardsFailed, len(fo.Failed), len(calls), firstErr)
	}
	return matches, partial
}

// timeoutFor seeds a shard timeout from its predicted cost: cost
// converted to nanoseconds, scaled by slack, clamped.
func (rt *Router) timeoutFor(est core.CostEstimate) time.Duration {
	d := time.Duration((est.Nodes*nsPerNodeRead + est.Dists*nsPerDistCalc) * rt.cfg.SlackFactor)
	return min(max(d, rt.cfg.MinShardTimeout), rt.cfg.MaxShardTimeout)
}

var errNoEndpoints = &server.ClientError{Code: "breaker_open", Msg: "no routable endpoint (all breakers open)", Retry: true}

// retryable reports whether a failed shard call is worth another
// attempt, and so whether it counts against its endpoint's breaker.
// Only transport errors, 5xx and 429 sheds are: a node that refused the
// request, or whose answer overran the client's size cap, is up and
// would answer the same way again.
func retryable(err error) bool {
	var ce *server.ClientError
	return !errors.As(err, &ce) || ce.Retry
}

// queryShard runs one shard's share to completion: hedged first
// attempt, then retries with capped exponential backoff over whichever
// endpoints the breakers still admit. Returns the node response, how
// many hedges fired, and the final error if every attempt failed.
func (rt *Router) queryShard(ctx context.Context, c shardCall) (*server.QueryResponse, int, error) {
	var lastErr error = errNoEndpoints
	hedges := 0
	for attempt := 0; attempt <= rt.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			rt.cRetries.Inc()
			if !rt.backoff(ctx, attempt) {
				return nil, hedges, ctx.Err()
			}
		}
		eps := c.st.allowed(time.Now())
		if len(eps) == 0 {
			lastErr = errNoEndpoints
			continue
		}
		primary := eps[attempt%len(eps)]
		var hedge *endpoint
		if len(eps) >= 2 && rt.cfg.HedgeMaxNodes > 0 && c.est.Nodes <= rt.cfg.HedgeMaxNodes {
			hedge = eps[(attempt+1)%len(eps)]
		}
		res, fired, err := rt.attemptHedged(ctx, c, primary, hedge)
		hedges += fired
		if err == nil {
			return res, hedges, nil
		}
		lastErr = err
		if !retryable(err) {
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
	d := min(rt.cfg.RetryBase<<(attempt-1), rt.cfg.RetryMax)
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
// is not charged to its breaker, and neither is a permanent error: the
// node answered. Returns (response, hedgesFired, err).
func (rt *Router) attemptHedged(ctx context.Context, c shardCall, primary, hedge *endpoint) (*server.QueryResponse, int, error) {
	type report struct {
		res    *server.QueryResponse
		err    error
		hedged bool
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan report, 2)
	run := func(ep *endpoint, hedgedLeg bool) {
		start := time.Now()
		res, err := c.send(actx, ep)
		if err != nil && actx.Err() != nil && ctx.Err() == nil {
			// The other leg won and we were canceled: not a node failure,
			// and nobody is waiting for this report.
			return
		}
		c.st.latency.Observe(time.Since(start).Seconds() * 1000)
		rt.cShardCalls.Inc()
		if err != nil {
			rt.cShardFailures.Inc()
		}
		if err != nil && retryable(err) {
			ep.brk.failure(time.Now())
		} else {
			ep.brk.success()
		}
		ch <- report{res: res, err: err, hedged: hedgedLeg}
	}

	go run(primary, false)
	outstanding := 1
	fired := 0
	var hedgeC <-chan time.Time
	if hedge != nil {
		delay := rt.cfg.HedgeDelay
		if delay <= 0 {
			delay = c.timeout / 4
		}
		timer := time.NewTimer(delay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			rt.cHedges.Inc()
			fired = 1
			go run(hedge, true)
			outstanding++
		case rep := <-ch:
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
				ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
				defer cancel()
				if ep.cl.Health(ctx) == nil {
					ep.brk.success()
				} else {
					ep.brk.failure(time.Now())
				}
			}(ep)
		}
	}
	wg.Wait()
}
