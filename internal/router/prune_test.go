package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/router"
	"mcost/internal/server"
	"mcost/internal/shard"
)

// setCluster serves the shards of one in-process shard.Set as HTTP
// nodes, so the Set and a router over the nodes answer from the very
// same trees and their pruning can be compared shard by shard.
func setCluster(t *testing.T, space *metric.Space, objects []metric.Object, shards int) (*shard.Set, [][]string) {
	t.Helper()
	set, err := shard.Build(space, objects, shard.Options{Shards: shards, Assign: shard.Pivot, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := server.DecoderForSpace(space, objects[0])
	if err != nil {
		t.Fatal(err)
	}
	eps := make([][]string, shards)
	for i, sh := range set.Shards() {
		node, err := shard.NewNode(space, sh, i, shards, shard.Pivot)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: node, Decode: dec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		eps[i] = []string{ts.URL}
	}
	return set, eps
}

// postFrom posts bodies[i] to path on h for every i, from the given
// number of concurrent workers, and hands each answer to check.
func postFrom(workers int, h http.Handler, path string, bodies []interface{}, check func(i int, rr *httptest.ResponseRecorder)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bodies); i += workers {
				b, _ := json.Marshal(bodies[i]) // request structs of floats and ints
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
				check(i, rr)
			}
		}(w)
	}
	wg.Wait()
}

// nnBodies is one k-NN request per query.
func nnBodies(qs []metric.Object, k int) []interface{} {
	bodies := make([]interface{}, len(qs))
	for i, q := range qs {
		bodies[i] = nnReq{q.(metric.Vector), k}
	}
	return bodies
}

// The router and the in-process Set prune with one function: for every
// query they must skip exactly the same shards, and return the same
// matches in the same order — over float vectors and over strings under
// the integer-valued edit distance, where a query sits at equal
// distances from two pivots all the time.
func TestRouterSkipsWhatTheSetSkips(t *testing.T) {
	vec := dataset.PaperClustered(600, 4, 41)
	words := dataset.Words(860, 32)
	for _, c := range []struct {
		name    string
		space   *metric.Space
		objects []metric.Object
		queries []metric.Object
		radii   []float64
	}{
		{"L2", metric.VectorSpace("L2", 4), vec.Objects, dataset.PaperClusteredQueries(16, 4, 41).Queries, []float64{0, 0.05, 0.15, 0.4}},
		{"edit", words.Space, words.Objects[:800], dataset.WordQueries(16, 32).Queries, []float64{0, 1, 2, 4}},
	} {
		for _, shards := range []int{3, 5} {
			t.Run(fmt.Sprintf("%s/s=%d", c.name, shards), func(t *testing.T) {
				set, eps := setCluster(t, c.space, c.objects, shards)
				rt := newRouter(t, router.Config{Shards: eps})
				h := serve(t, rt, 0)
				skippedTotal := 0
				// Members as queries give distance-0 matches and exact ties.
				for qi, q := range append(c.objects[:8:8], c.queries...) {
					for _, radius := range c.radii {
						set.ResetCosts()
						want, err := set.Range(q, radius, shard.QueryOptions{UseParentDist: true})
						if err != nil {
							t.Fatal(err)
						}
						var setSkipped []int
						for i, sh := range set.Shards() {
							if sh.Tree.NodeReads() == 0 {
								setSkipped = append(setSkipped, i)
							}
						}
						code, body := postJSON(t, h, "/v1/range", map[string]interface{}{"query": q, "radius": radius})
						if code != http.StatusOK {
							t.Fatalf("q%d r=%g: status %d: %s", qi, radius, code, body)
						}
						qr := decodeQR(t, body)
						label := fmt.Sprintf("q%d r=%g", qi, radius)
						if !slices.Equal(qr.ShardsSkipped, setSkipped) {
							t.Errorf("%s: router skipped %v, the Set %v", label, qr.ShardsSkipped, setSkipped)
						}
						if qr.ShardsQueried != shards-len(setSkipped) {
							t.Errorf("%s: shards_queried = %d with %d of %d skipped", label, qr.ShardsQueried, len(setSkipped), shards)
						}
						if len(qr.Matches) != len(want) {
							t.Fatalf("%s: router returned %d matches, the Set %d", label, len(qr.Matches), len(want))
						}
						for i, m := range qr.Matches {
							if m.OID != want[i].OID || m.Distance != want[i].Distance {
								t.Fatalf("%s: match %d = (oid %d, %v), the Set has (oid %d, %v)",
									label, i, m.OID, m.Distance, want[i].OID, want[i].Distance)
							}
						}
						skippedTotal += len(setSkipped)
					}
				}
				if skippedTotal == 0 {
					t.Error("no query skipped any shard: the comparison checks nothing")
				}
			})
		}
	}
}

// A shard the bound skips has answered — with the empty set, by proof.
// So a range query whose only unskipped shard is dead still has an
// answer (200, degraded, no matches, the dead shard named), and the 503
// is left for a query that skipped nothing and heard from nobody.
func TestSkippedShardsCountAsAnswered(t *testing.T) {
	c := buildCluster(t, 3)
	rt := newRouter(t, router.Config{
		Shards:          c.endpoints(),
		MaxRetries:      -1,
		MinShardTimeout: 2 * time.Second,
	})
	h := serve(t, rt, 0)

	// A member queried at a small radius reaches its own shard only.
	const radius = 0.02
	var q metric.Vector
	only := -1
	for _, o := range c.d.Objects {
		code, body := postJSON(t, h, "/v1/range", rangeReq{o.(metric.Vector), radius})
		if code != http.StatusOK {
			t.Fatalf("probe range: status %d: %s", code, body)
		}
		if qr := decodeQR(t, body); len(qr.ShardsSkipped) == 2 {
			q = o.(metric.Vector)
			only = 3 - qr.ShardsSkipped[0] - qr.ShardsSkipped[1]
			break
		}
	}
	if only < 0 {
		t.Fatal("no dataset object's range query skips two of the three shards")
	}
	var others []int
	for i := 0; i < 3; i++ {
		if i != only {
			others = append(others, i)
		}
	}

	c.nodes[only].Close()
	code, body := postJSON(t, h, "/v1/range", rangeReq{q, radius})
	if code != http.StatusOK {
		t.Fatalf("range with its one unskipped shard dead: status %d, want 200: %s", code, body)
	}
	qr := decodeQR(t, body)
	if qr.Degraded != "shards_failed" || !slices.Equal(qr.ShardsFailed, []int{only}) ||
		!slices.Equal(qr.ShardsSkipped, others) || len(qr.Matches) != 0 {
		t.Errorf("got degraded=%q shards_failed=%v shards_skipped=%v matches=%d; want shards_failed %v %v 0",
			qr.Degraded, qr.ShardsFailed, qr.ShardsSkipped, len(qr.Matches), []int{only}, others)
	}
	if !bytes.Contains(body, []byte(`"matches":[]`)) {
		t.Errorf("an answer with no matches must carry an empty array, not null: %s", body)
	}

	// Nothing skipped and every call failed: that, and only that, is 503.
	for _, i := range others {
		c.nodes[i].Close()
	}
	for _, call := range []struct {
		path string
		body interface{}
	}{
		{"/v1/range", rangeReq{q, 4}}, // the whole unit cube is within 4
		{"/v1/nn", nnReq{q, 5}},
	} {
		code, body := postJSON(t, h, call.path, call.body)
		var eb struct {
			Code         string `json:"code"`
			ShardsFailed []int  `json:"shards_failed"`
		}
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusServiceUnavailable || eb.Code != "all_shards_failed" || len(eb.ShardsFailed) != 3 {
			t.Errorf("%s with every node down and nothing skipped: status %d code %q shards_failed %v, want 503 all_shards_failed over 3",
				call.path, code, eb.Code, eb.ShardsFailed)
		}
	}
	// With every node down a skipping query still degrades, not fails.
	if code, body := postJSON(t, h, "/v1/range", rangeReq{q, radius}); code != http.StatusOK {
		t.Errorf("skipping range with every node down: status %d, want 200: %s", code, body)
	}
}

// The router keeps a connection pool sized for its fan-out. On
// http.DefaultTransport (two idle connections per host) the third
// concurrent call to a shard dials a connection and throws it away when
// done: 400 queries from 8 workers open some 140 per shard. On its own
// transport a shard sees about as many connections as there are
// workers, plus the health probe's. The ceiling is twice the workers
// because a call that finds the pool empty dials even if a connection
// comes free first, and the spare joins the pool: the opening burst can
// leave a few more than ever ran at once.
func TestRouterReusesShardConnections(t *testing.T) {
	const workers, queries = 8, 400
	c := buildCluster(t, 3)
	opened := make([]atomic.Int64, len(c.handlers))
	eps := make([][]string, len(c.handlers))
	for i, h := range c.handlers {
		ts := httptest.NewUnstartedServer(h)
		ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				opened[i].Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		eps[i] = []string{ts.URL}
	}
	rt := newRouter(t, router.Config{Shards: eps, HealthInterval: 5 * time.Millisecond})
	// k-NN calls every shard, so each sees the full concurrency.
	bodies := nnBodies(dataset.UniformQueries(queries, 4, 99).Queries, 5)
	postFrom(workers, serve(t, rt, 0), "/v1/nn", bodies, func(i int, rr *httptest.ResponseRecorder) {
		if rr.Code != http.StatusOK {
			t.Errorf("query %d: status %d: %s", i, rr.Code, rr.Body.Bytes())
		}
	})
	for i := range opened {
		if n := opened[i].Load(); n > 2*workers {
			t.Errorf("shard %d accepted %d connections for %d queries from %d workers, want at most %d",
				i, n, queries, workers, 2*workers)
		}
	}
}

// One price per (model, k): over 1000 /v1/nn requests from 8 workers
// the quoted prediction is, byte for byte, what the parent computed on
// every request — the sum over the shard summaries' models of NNL(k),
// cold — while each of the router's models fills a single table entry.
func TestRouterPricesEachKOnce(t *testing.T) {
	const workers, requests, k = 8, 1000, 10
	c := buildCluster(t, 3)
	rt := newRouter(t, router.Config{Shards: c.endpoints()})
	h := serve(t, rt, 0)

	var want server.CostJSON
	for _, sum := range c.summaries(t) {
		model, err := sum.Model()
		if err != nil {
			t.Fatal(err)
		}
		e := model.NNL(min(k, sum.Size))
		want.NodeReads += e.Nodes
		want.DistCalcs += e.Dists
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	bodies := nnBodies(dataset.UniformQueries(requests, 4, 99).Queries, k)
	postFrom(workers, h, "/v1/nn", bodies, func(i int, rr *httptest.ResponseRecorder) {
		var resp struct {
			Predicted json.RawMessage `json:"predicted"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || rr.Code != http.StatusOK {
			t.Errorf("request %d: status %d, %v", i, rr.Code, err)
		} else if !bytes.Equal(resp.Predicted, wantBytes) {
			t.Errorf("request %d: predicted %s, want %s", i, resp.Predicted, wantBytes)
		}
	})
	for i, m := range rt.ShardModels() {
		if n := m.CachedKs(); n != 1 {
			t.Errorf("shard %d's model holds %d table entries after %d requests at one k, want 1", i, n, requests)
		}
	}
}

// BenchmarkRouterQuery times one query through the router's handler
// over three httptest shard nodes. CI runs it at -benchtime 300x and
// fails if a k-NN costs more than three range queries: both fan out the
// same way, so the ratio says whether pricing a k-NN has crept back
// into the request path (it was about twenty before the price table).
func BenchmarkRouterQuery(b *testing.B) {
	c := buildCluster(b, 3)
	rt, err := router.New(context.Background(), router.Config{Shards: c.endpoints(), HealthInterval: -1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	h := serve(b, rt, 0)
	qs := dataset.UniformQueries(64, 4, 99).Queries
	bodies := func(mk func(metric.Vector) interface{}) [][]byte {
		out := make([][]byte, len(qs))
		for i, q := range qs {
			out[i], _ = json.Marshal(mk(q.(metric.Vector)))
		}
		return out
	}
	for _, bc := range []struct {
		name, path string
		bodies     [][]byte
	}{
		{"range", "/v1/range", bodies(func(q metric.Vector) interface{} { return rangeReq{q, 0.15} })},
		{"nn_k10", "/v1/nn", bodies(func(q metric.Vector) interface{} { return nnReq{q, 10} })},
	} {
		b.Run(bc.name, func(b *testing.B) {
			do := func(i int) {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, bc.path, bytes.NewReader(bc.bodies[i%len(bc.bodies)])))
				if rr.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
				}
			}
			do(0) // connections dialed, price tables filled
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do(i)
			}
		})
	}
}
