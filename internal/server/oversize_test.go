package server_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcost"
	"mcost/internal/dataset"
	"mcost/internal/router"
	"mcost/internal/server"
)

// A node answer over the client's size cap is permanent: the router
// neither retries it nor charges it to the node's breaker, and the
// shard is lost for that query alone. Read through a silently truncating
// reader, the same answer failed to decode, looked transient, was
// retried on every attempt and opened the breaker.
func TestRouterDoesNotRetryAnOversizedNodeAnswer(t *testing.T) {
	d := dataset.Uniform(600, 4, 7)
	opt := mcost.Options{Seed: 7, Workers: 1}
	so := mcost.ShardOptions{Shards: 2, Assign: mcost.ShardPivot}
	var eps [][]string
	for i := 0; i < so.Shards; i++ {
		node, err := mcost.BuildShardNode(d.Space, d.Objects, opt, so, i)
		if err != nil {
			t.Fatalf("shard node %d: %v", i, err)
		}
		srv, err := server.New(server.Config{Engine: node, Decode: server.VectorDecoder(4)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		eps = append(eps, []string{ts.URL})
	}
	rt, err := router.New(context.Background(), router.Config{
		Shards: eps, HealthInterval: -1, MaxRetries: 2, BreakerFails: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := server.New(server.Config{Engine: rt, Decode: rt.Decoder(), BudgetSlack: -1, Registry: rt.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// Each shard's half of the whole unit cube is ~300 matches, tens of
	// KiB: far over a 4 KiB cap.
	defer func(old int64) { *server.MaxResponseBytes = old }(*server.MaxResponseBytes)
	*server.MaxResponseBytes = 4 << 10
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/range",
		strings.NewReader(`{"query":[0.5,0.5,0.5,0.5],"radius":2}`)))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "body_too_large") {
		t.Errorf("status %d, body %s; want 503 all_shards_failed naming body_too_large", rec.Code, rec.Body)
	}
	counters := rt.Registry().Snapshot().Counters
	if counters["router.shard_calls"] != 2 || counters["router.retries"] != 0 || counters["router.breaker_opens"] != 0 {
		t.Errorf("shard_calls %d, retries %d, breaker_opens %d; want one call per shard, no retry, no breaker opened",
			counters["router.shard_calls"], counters["router.retries"], counters["router.breaker_opens"])
	}
}
