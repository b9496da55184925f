package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"mcost"
	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/router"
	"mcost/internal/server"
)

// cluster is an in-process 3-tier fixture: the reference sharded Index,
// one HTTP shard node per shard (real server.Server over a real
// shard.Node engine), and the dataset they all share.
type cluster struct {
	d       *dataset.Dataset
	sx      *mcost.Index
	engines []*mcost.ShardNode
	nodes   []*httptest.Server
	// handlers[i] is shard i's node handler, for wrapping (slow
	// proxies, extra replicas) without another engine build.
	handlers []http.Handler
}

func buildCluster(t testing.TB, shards int) *cluster {
	t.Helper()
	return buildClusterWith(t, shards, mcost.Options{Seed: 7, Workers: 1})
}

// buildClusterWith is buildCluster under the given build options, which
// the reference Index and every node share.
func buildClusterWith(t testing.TB, shards int, opt mcost.Options) *cluster {
	t.Helper()
	d := dataset.Uniform(600, 4, 7)
	so := mcost.ShardOptions{Shards: shards, Assign: mcost.ShardPivot}
	sx, err := mcost.BuildSharded(d.Space, d.Objects, opt, so)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{d: d, sx: sx}
	for i := 0; i < shards; i++ {
		node, err := mcost.BuildShardNode(d.Space, d.Objects, opt, so, i)
		if err != nil {
			t.Fatalf("shard node %d: %v", i, err)
		}
		c.engines = append(c.engines, node)
		srv, err := server.New(server.Config{Engine: node, Decode: server.VectorDecoder(4)})
		if err != nil {
			t.Fatalf("shard node %d server: %v", i, err)
		}
		t.Cleanup(srv.Close)
		h := srv.Handler()
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		c.nodes = append(c.nodes, ts)
		c.handlers = append(c.handlers, h)
	}
	return c
}

func (c *cluster) endpoints() [][]string {
	out := make([][]string, len(c.nodes))
	for i, ts := range c.nodes {
		out[i] = []string{ts.URL}
	}
	return out
}

func newRouter(t *testing.T, cfg router.Config) *router.Router {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1 // deterministic tests drive breakers themselves
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rt, err := router.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.Bytes()
}

func decodeQR(t *testing.T, body []byte) router.QueryResponse {
	t.Helper()
	var qr router.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("response body %q: %v", body, err)
	}
	return qr
}

// assertWireEqual checks the router's wire matches against the
// in-process reference: OIDs and distances exactly, and each carried
// object decodes to the dataset object that OID names.
func assertWireEqual(t *testing.T, label string, got []router.Match, want []mcost.Match, d *dataset.Dataset) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d matches, want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].OID != want[i].OID || got[i].Distance != want[i].Distance {
			t.Errorf("%s: match %d = (oid %d, dist %v), want (oid %d, dist %v)",
				label, i, got[i].OID, got[i].Distance, want[i].OID, want[i].Distance)
			return
		}
		var v metric.Vector
		if err := json.Unmarshal(got[i].Object, &v); err != nil {
			t.Errorf("%s: match %d object %q: %v", label, i, got[i].Object, err)
			return
		}
		ref := d.Objects[got[i].OID].(metric.Vector)
		if len(v) != len(ref) {
			t.Errorf("%s: match %d object has %d dims, want %d", label, i, len(v), len(ref))
			return
		}
		for j := range v {
			if v[j] != ref[j] {
				t.Errorf("%s: match %d object[%d] = %v, want %v", label, i, j, v[j], ref[j])
				return
			}
		}
	}
}

type rangeReq struct {
	Query  metric.Vector `json:"query"`
	Radius float64       `json:"radius"`
}

type nnReq struct {
	Query metric.Vector `json:"query"`
	K     int           `json:"k"`
}

// The healthy path is bit-identical to the in-process sharded Index:
// same matches, same order, same objects, same predicted cost — for
// range and k-NN, fronting one node and three, with the nodes and the
// Index serving from the node store or from the frozen arena.
func TestRouterEquivalence(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, layout := range []string{"memory", "arena"} {
				t.Run(layout, func(t *testing.T) {
					opt := mcost.Options{Seed: 7, Workers: 1, Arena: mcost.ArenaOptions{Enabled: layout == "arena"}}
					c := buildClusterWith(t, shards, opt)
					for i, node := range c.engines {
						if frozen := node.Shard().Tree.Arena() != nil; frozen != opt.Arena.Enabled {
							t.Fatalf("shard node %d: arena attached = %v, want %v", i, frozen, opt.Arena.Enabled)
						}
					}
					rt := newRouter(t, router.Config{Shards: c.endpoints()})
					h := rt.Handler()
					qs := dataset.UniformQueries(10, 4, 99).Queries

					for qi, q := range qs {
						qv := q.(metric.Vector)
						for _, radius := range []float64{0.15, 0.4} {
							want, err := c.sx.Range(q, radius)
							if err != nil {
								t.Fatal(err)
							}
							code, body := postJSON(t, h, "/v1/range", rangeReq{qv, radius})
							if code != http.StatusOK {
								t.Fatalf("range q%d r=%g: status %d: %s", qi, radius, code, body)
							}
							qr := decodeQR(t, body)
							label := fmt.Sprintf("range q%d r=%g", qi, radius)
							assertWireEqual(t, label, qr.Matches, want, c.d)
							if qr.Degraded || qr.Partial {
								t.Errorf("%s: healthy response flagged degraded=%v partial=%v", label, qr.Degraded, qr.Partial)
							}
							pred := c.sx.PredictRangeLevel(radius)
							if qr.Predicted.NodeReads != pred.Nodes || qr.Predicted.DistCalcs != pred.Dists {
								t.Errorf("%s: predicted (%v, %v), want in-process (%v, %v)",
									label, qr.Predicted.NodeReads, qr.Predicted.DistCalcs, pred.Nodes, pred.Dists)
							}
						}
						for _, k := range []int{1, 5, 20} {
							want, err := c.sx.NN(q, k)
							if err != nil {
								t.Fatal(err)
							}
							code, body := postJSON(t, h, "/v1/nn", nnReq{qv, k})
							if code != http.StatusOK {
								t.Fatalf("nn q%d k=%d: status %d: %s", qi, k, code, body)
							}
							qr := decodeQR(t, body)
							label := fmt.Sprintf("nn q%d k=%d", qi, k)
							assertWireEqual(t, label, qr.Matches, want, c.d)
							pred := c.sx.PredictNNLevel(k)
							if qr.Predicted.NodeReads != pred.Nodes || qr.Predicted.DistCalcs != pred.Dists {
								t.Errorf("%s: predicted (%v, %v), want in-process (%v, %v)",
									label, qr.Predicted.NodeReads, qr.Predicted.DistCalcs, pred.Nodes, pred.Dists)
							}
						}
					}
				})
			}
		})
	}
}

// A query whose pivot lower bound rules out every shard is answered
// from the model alone: no shard is contacted, and the result still
// matches the in-process engine (empty).
func TestRouterShardSkip(t *testing.T) {
	c := buildCluster(t, 3)
	rt := newRouter(t, router.Config{Shards: c.endpoints()})

	far := metric.Vector{10, 10, 10, 10} // lower bound to every pivot ball >> radius
	want, err := c.sx.Range(far, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("reference range for the far query returned %d matches, want 0", len(want))
	}
	code, body := postJSON(t, rt.Handler(), "/v1/range", rangeReq{far, 0.1})
	if code != http.StatusOK {
		t.Fatalf("far range: status %d: %s", code, body)
	}
	qr := decodeQR(t, body)
	if len(qr.Matches) != 0 || qr.ShardsQueried != 0 || len(qr.ShardsSkipped) != 3 {
		t.Errorf("far range = %d matches, %d queried, skipped %v; want 0 matches, 0 queried, 3 skipped",
			len(qr.Matches), qr.ShardsQueried, qr.ShardsSkipped)
	}
	if n := rt.Registry().Counter("router.shards_skipped").Value(); n != 3 {
		t.Errorf("router.shards_skipped = %d, want 3", n)
	}
}

// nodeMatches queries a node server directly and returns its matches —
// the per-shard contribution the degraded merge must exclude or keep.
func nodeMatches(t *testing.T, h http.Handler, path string, body interface{}) []router.Match {
	t.Helper()
	code, b := postJSON(t, h, path, body)
	if code != http.StatusOK {
		t.Fatalf("node %s: status %d: %s", path, code, b)
	}
	var resp struct {
		Matches []router.Match `json:"matches"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Matches
}

// Killing one node degrades instead of failing: 200 with
// "degraded":true, the dead shard in shards_failed, and exactly the
// surviving shards' merge — bit-identical to re-running against only
// the healthy shards.
func TestRouterDegradedPartial(t *testing.T) {
	const dead = 1
	c := buildCluster(t, 3)
	q := dataset.UniformQueries(1, 4, 99).Queries[0]
	qv := q.(metric.Vector)
	const radius = 0.4
	const k = 10

	// Surviving-shard references, taken over HTTP before the kill.
	deadRange := nodeMatches(t, c.handlers[dead], "/v1/range", rangeReq{qv, radius})
	deadOIDs := make(map[uint64]bool)
	for _, m := range deadRange {
		deadOIDs[m.OID] = true
	}
	var wantNN []router.Match
	for i, h := range c.handlers {
		if i == dead {
			continue
		}
		wantNN = append(wantNN, nodeMatches(t, h, "/v1/nn", nnReq{qv, k})...)
	}
	sort.Slice(wantNN, func(i, j int) bool {
		if wantNN[i].Distance != wantNN[j].Distance {
			return wantNN[i].Distance < wantNN[j].Distance
		}
		return wantNN[i].OID < wantNN[j].OID
	})
	if len(wantNN) > k {
		wantNN = wantNN[:k]
	}

	rt := newRouter(t, router.Config{
		Shards:          c.endpoints(),
		MaxRetries:      -1, // the node is gone; retries only slow the test
		MinShardTimeout: 2 * time.Second,
	})
	h := rt.Handler()
	c.nodes[dead].Close()

	fullRange, err := c.sx.Range(q, radius)
	if err != nil {
		t.Fatal(err)
	}
	var wantRange []mcost.Match
	for _, m := range fullRange {
		if !deadOIDs[m.OID] {
			wantRange = append(wantRange, m)
		}
	}

	code, body := postJSON(t, h, "/v1/range", rangeReq{qv, radius})
	if code != http.StatusOK {
		t.Fatalf("degraded range: status %d: %s", code, body)
	}
	qr := decodeQR(t, body)
	if !qr.Degraded {
		t.Errorf("degraded range: response not flagged degraded: %s", body)
	}
	if len(qr.ShardsFailed) != 1 || qr.ShardsFailed[0] != dead {
		t.Errorf("degraded range: shards_failed = %v, want [%d]", qr.ShardsFailed, dead)
	}
	assertWireEqual(t, "degraded range", qr.Matches, wantRange, c.d)

	code, body = postJSON(t, h, "/v1/nn", nnReq{qv, k})
	if code != http.StatusOK {
		t.Fatalf("degraded nn: status %d: %s", code, body)
	}
	qr = decodeQR(t, body)
	if !qr.Degraded || len(qr.ShardsFailed) != 1 || qr.ShardsFailed[0] != dead {
		t.Errorf("degraded nn: degraded=%v shards_failed=%v, want true [%d]", qr.Degraded, qr.ShardsFailed, dead)
	}
	if len(qr.Matches) != len(wantNN) {
		t.Fatalf("degraded nn: %d matches, want %d", len(qr.Matches), len(wantNN))
	}
	for i := range qr.Matches {
		if qr.Matches[i].OID != wantNN[i].OID || qr.Matches[i].Distance != wantNN[i].Distance {
			t.Errorf("degraded nn: match %d = (oid %d, dist %v), want (oid %d, dist %v)",
				i, qr.Matches[i].OID, qr.Matches[i].Distance, wantNN[i].OID, wantNN[i].Distance)
			break
		}
	}

	if n := rt.Registry().Counter("router.degraded").Value(); n < 2 {
		t.Errorf("router.degraded = %d, want >= 2", n)
	}
	if n := rt.Registry().Counter("router.shard_failures").Value(); n < 2 {
		t.Errorf("router.shard_failures = %d, want >= 2", n)
	}
}

// Every node down is the one case with nothing to answer from: a typed
// 503, never a panic or an empty 200.
func TestRouterAllShardsFailed(t *testing.T) {
	c := buildCluster(t, 2)
	rt := newRouter(t, router.Config{
		Shards:          c.endpoints(),
		MaxRetries:      -1,
		MinShardTimeout: 2 * time.Second,
	})
	for _, ts := range c.nodes {
		ts.Close()
	}
	q := dataset.UniformQueries(1, 4, 99).Queries[0].(metric.Vector)
	for _, call := range []struct {
		path string
		body interface{}
	}{
		{"/v1/range", rangeReq{q, 0.4}},
		{"/v1/nn", nnReq{q, 5}},
	} {
		code, body := postJSON(t, rt.Handler(), call.path, call.body)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s with every node down: status %d: %s", call.path, code, body)
		}
		var eb struct {
			Code         string `json:"code"`
			ShardsFailed []int  `json:"shards_failed"`
		}
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Code != "all_shards_failed" || len(eb.ShardsFailed) != 2 {
			t.Errorf("%s: body code=%q shards_failed=%v, want all_shards_failed over 2 shards", call.path, eb.Code, eb.ShardsFailed)
		}
	}
}

// Prediction-aware hedging: a slow primary under the hedge threshold
// races a fast replica; the replica wins, the response is still exact,
// and the counters prove the race happened.
func TestRouterHedging(t *testing.T) {
	c := buildCluster(t, 3)

	// Shard 0's primary delays every query; its replica (same engine)
	// answers immediately. Boot-time GETs pass through undelayed.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			time.Sleep(150 * time.Millisecond)
		}
		c.handlers[0].ServeHTTP(w, r)
	}))
	defer slow.Close()
	shards := c.endpoints()
	shards[0] = []string{slow.URL, c.nodes[0].URL}

	rt := newRouter(t, router.Config{
		Shards:          shards,
		HedgeMaxNodes:   1e12, // everything is cheap enough to hedge
		HedgeDelay:      time.Millisecond,
		MaxRetries:      -1,
		MinShardTimeout: 2 * time.Second,
	})

	q := dataset.UniformQueries(1, 4, 99).Queries[0]
	want, err := c.sx.Range(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	code, body := postJSON(t, rt.Handler(), "/v1/range", rangeReq{q.(metric.Vector), 0.4})
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("hedged range: status %d: %s", code, body)
	}
	qr := decodeQR(t, body)
	assertWireEqual(t, "hedged range", qr.Matches, want, c.d)
	if qr.Degraded {
		t.Errorf("hedged range flagged degraded: %s", body)
	}
	if qr.Hedged < 1 {
		t.Errorf("hedged range reported hedged=%d, want >= 1", qr.Hedged)
	}
	if elapsed >= 150*time.Millisecond {
		t.Errorf("hedged range took %v; the replica should have answered before the %v primary delay", elapsed, 150*time.Millisecond)
	}
	if n := rt.Registry().Counter("router.hedges").Value(); n < 1 {
		t.Errorf("router.hedges = %d, want >= 1", n)
	}
	if n := rt.Registry().Counter("router.hedges_won").Value(); n < 1 {
		t.Errorf("router.hedges_won = %d, want >= 1", n)
	}

	// /v1/stats serves those counters on the wire.
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rr := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || !bytes.Contains(rr.Body.Bytes(), []byte("router.hedges_won")) {
		t.Errorf("/v1/stats = %d, want 200 carrying router.hedges_won", rr.Code)
	}
}

// Above the hedge threshold nothing duplicates: expensive work must
// not spread under pressure.
func TestRouterNoHedgeAboveThreshold(t *testing.T) {
	c := buildCluster(t, 2)
	shards := c.endpoints()
	shards[0] = []string{c.nodes[0].URL, c.nodes[0].URL} // replica available, never used

	rt := newRouter(t, router.Config{
		Shards:        shards,
		HedgeMaxNodes: 1e-9, // every prediction exceeds this
		HedgeDelay:    time.Millisecond,
	})
	q := dataset.UniformQueries(1, 4, 99).Queries[0].(metric.Vector)
	code, body := postJSON(t, rt.Handler(), "/v1/range", rangeReq{q, 0.4})
	if code != http.StatusOK {
		t.Fatalf("range: status %d: %s", code, body)
	}
	if qr := decodeQR(t, body); qr.Hedged != 0 {
		t.Errorf("hedged=%d above the cost threshold, want 0", qr.Hedged)
	}
	if n := rt.Registry().Counter("router.hedges").Value(); n != 0 {
		t.Errorf("router.hedges = %d, want 0", n)
	}
}

// The health loop opens a dead endpoint's breaker without any query
// traffic, /healthz reports it, and queries fail over to the replica
// with full (non-degraded) results.
func TestRouterBreakerOpensAndFailsOver(t *testing.T) {
	c := buildCluster(t, 2)

	// A primary that is down from the start: reserve a URL, then close.
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadTS.URL
	deadTS.Close()
	shards := c.endpoints()
	shards[0] = []string{deadURL, c.nodes[0].URL}

	rt := newRouter(t, router.Config{
		Shards:          shards,
		HealthInterval:  10 * time.Millisecond,
		HealthTimeout:   200 * time.Millisecond,
		BreakerFails:    2,
		BreakerCooldown: time.Hour, // stays open for the whole test
		MaxRetries:      -1,
		MinShardTimeout: 2 * time.Second,
	})

	deadline := time.Now().Add(5 * time.Second)
	for rt.Registry().Counter("router.breaker_opens").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never opened the dead endpoint's breaker")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rr, req)
	var hr router.HealthResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Breakers) != 2 || len(hr.Breakers[0]) != 2 || hr.Breakers[0][0] != "open" {
		t.Errorf("/healthz breakers = %v, want shard 0 primary open", hr.Breakers)
	}
	if hr.Breakers[0][1] != "closed" || hr.Breakers[1][0] != "closed" {
		t.Errorf("/healthz breakers = %v, want healthy endpoints closed", hr.Breakers)
	}

	// With the primary's breaker open, queries go straight to the
	// replica: full results, nothing degraded, no dial wasted.
	q := dataset.UniformQueries(1, 4, 99).Queries[0]
	want, err := c.sx.Range(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, rt.Handler(), "/v1/range", rangeReq{q.(metric.Vector), 0.4})
	if code != http.StatusOK {
		t.Fatalf("failover range: status %d: %s", code, body)
	}
	qr := decodeQR(t, body)
	if qr.Degraded {
		t.Errorf("failover range flagged degraded with a healthy replica: %s", body)
	}
	assertWireEqual(t, "failover range", qr.Matches, want, c.d)
}

// Transient shard failures retry with backoff and recover without
// surfacing any degradation.
func TestRouterRetriesTransientFailure(t *testing.T) {
	c := buildCluster(t, 2)

	// Shard 0's only endpoint fails its first two query attempts with a
	// 500, then heals.
	var calls int
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			calls++
			if calls <= 2 {
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprint(w, `{"code":"internal","error":"synthetic"}`)
				return
			}
		}
		c.handlers[0].ServeHTTP(w, r)
	}))
	defer flaky.Close()
	shards := c.endpoints()
	shards[0] = []string{flaky.URL}

	rt := newRouter(t, router.Config{
		Shards:          shards,
		MaxRetries:      2,
		RetryBase:       time.Millisecond,
		RetryMax:        5 * time.Millisecond,
		BreakerFails:    10, // keep the breaker out of this test
		MinShardTimeout: 2 * time.Second,
	})
	q := dataset.UniformQueries(1, 4, 99).Queries[0]
	want, err := c.sx.Range(q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, rt.Handler(), "/v1/range", rangeReq{q.(metric.Vector), 0.4})
	if code != http.StatusOK {
		t.Fatalf("retried range: status %d: %s", code, body)
	}
	qr := decodeQR(t, body)
	if qr.Degraded {
		t.Errorf("retried range flagged degraded after recovery: %s", body)
	}
	assertWireEqual(t, "retried range", qr.Matches, want, c.d)
	if n := rt.Registry().Counter("router.retries").Value(); n < 2 {
		t.Errorf("router.retries = %d, want >= 2", n)
	}
}

// The router's own request validation is as strict and typed as the
// nodes': bad input never reaches the scatter.
func TestRouterRequestValidation(t *testing.T) {
	c := buildCluster(t, 2)
	rt := newRouter(t, router.Config{Shards: c.endpoints()})
	h := rt.Handler()

	cases := []struct {
		path string
		body string
		code string
	}{
		{"/v1/range", `{`, "bad_json"},
		{"/v1/range", `{"radius":1}`, "missing_query"},
		{"/v1/range", `{"query":[0,0,0,0]}`, "missing_radius"},
		{"/v1/range", `{"query":[0,0,0,0],"radius":-1}`, "bad_radius"},
		{"/v1/range", `{"query":[0,0,0,0],"k":3}`, "bad_radius"},
		{"/v1/nn", `{"query":[0,0,0,0]}`, "missing_k"},
		{"/v1/nn", `{"query":[0,0,0,0],"k":0}`, "bad_k"},
		{"/v1/nn", `{"query":[0,0,0,0],"k":100000}`, "bad_k"},
		{"/v1/nn", `{"query":[0,0,0,0],"radius":1}`, "bad_k"},
		{"/v1/nn", `{"query":"nope","k":3}`, "bad_query"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader([]byte(tc.body)))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code < 400 || rr.Code >= 500 {
			t.Errorf("%s %s: status %d, want 4xx", tc.path, tc.body, rr.Code)
			continue
		}
		var eb struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &eb); err != nil || eb.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.path, tc.body, eb.Code, tc.code)
		}
	}
	if n := rt.Registry().Counter("router.shard_calls").Value(); n != 0 {
		t.Errorf("invalid requests reached the shards: router.shard_calls = %d", n)
	}
}

// A bit string of the wrong length is a typed 400 at the router. Under
// pivot assignment the router measures the query against every shard's
// pivot before any call, so a decoder that only capped the length let a
// 4-byte query to a 64-bit HDC cluster panic inside metric.Hamming.
func TestRouterRejectsWrongLengthHammingQuery(t *testing.T) {
	d := dataset.HDC(300, 64, 5)
	opt := mcost.Options{Seed: 5, Workers: 1}
	so := mcost.ShardOptions{Shards: 3, Assign: mcost.ShardPivot}
	dec, err := server.DecoderForSpace(d.Space, d.Objects[0])
	if err != nil {
		t.Fatal(err)
	}
	var eps [][]string
	for i := 0; i < so.Shards; i++ {
		node, err := mcost.BuildShardNode(d.Space, d.Objects, opt, so, i)
		if err != nil {
			t.Fatalf("shard node %d: %v", i, err)
		}
		srv, err := server.New(server.Config{Engine: node, Decode: dec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		eps = append(eps, []string{ts.URL})
	}
	h := newRouter(t, router.Config{Shards: eps}).Handler()

	for _, tc := range []struct {
		path string
		body map[string]interface{}
	}{
		{"/v1/range", map[string]interface{}{"query": "0101", "radius": 20}},
		{"/v1/nn", map[string]interface{}{"query": "0101", "k": 3}},
	} {
		status, body := postJSON(t, h, tc.path, tc.body)
		var eb struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(body, &eb); status != http.StatusBadRequest || err != nil || eb.Code != "bad_query" {
			t.Errorf("%s with a 4-byte query: status %d, body %s; want 400 bad_query", tc.path, status, body)
		}
	}
	if status, body := postJSON(t, h, "/v1/range", map[string]interface{}{"query": d.Objects[0], "radius": 20}); status != http.StatusOK {
		t.Errorf("exact-length query: status %d, body %s", status, body)
	}
}
