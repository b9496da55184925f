package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mcost/internal/metric"
	"mcost/internal/workload"
)

// stubServer answers the wire API with scripted responses so the
// generator's counting is testable without a real index.
func stubServer(t *testing.T, handler http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/range", handler)
	mux.HandleFunc("/v1/nn", handler)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func testPool() []metric.Object {
	return []metric.Object{metric.Vector{0.1, 0.2}, metric.Vector{0.7, 0.4}}
}

func TestRunHTTPCountsResponseKinds(t *testing.T) {
	var n atomic.Int64
	ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		// Cycle: ok, partial, shed, error.
		switch n.Add(1) % 4 {
		case 1:
			json.NewEncoder(w).Encode(map[string]interface{}{
				"matches": []map[string]interface{}{{"oid": 1, "distance": 0.05}},
			})
		case 2:
			json.NewEncoder(w).Encode(map[string]interface{}{
				"matches": []map[string]interface{}{}, "partial": true, "degraded": "budget_exceeded",
			})
		case 3:
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]interface{}{
				"code": "overloaded", "retry_after_ms": 500,
			})
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	})
	w := &workload.Workload{Classes: []workload.QueryClass{{Name: "r", Weight: 1, Radius: 0.2}}}
	rep, err := RunHTTP(ts.URL, w, testPool(), HTTPOptions{
		Requests: 40, Workers: 1, Seed: 1, Backoff: true, MaxBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 {
		t.Fatalf("requests = %d, want 40", rep.Requests)
	}
	if rep.OK != 10 || rep.Partial != 10 || rep.Shed != 10 || rep.Errors != 10 {
		t.Fatalf("counts wrong: %+v", rep)
	}
	if rep.OK+rep.Partial+rep.Shed+rep.Errors != rep.Requests {
		t.Fatalf("kinds do not partition the requests: %+v", rep)
	}
	// Backoff honored the 429s, capped at MaxBackoff each.
	if rep.BackoffTotal != 10*time.Millisecond {
		t.Fatalf("backoff total %v, want capped 10ms", rep.BackoffTotal)
	}
}

func TestRunHTTPFlagsOutOfRadiusMatches(t *testing.T) {
	ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]interface{}{
			"matches": []map[string]interface{}{
				{"oid": 1, "distance": 0.1}, // fine
				{"oid": 2, "distance": 0.9}, // beyond radius 0.2
			},
		})
	})
	w := &workload.Workload{Classes: []workload.QueryClass{{Name: "r", Weight: 1, Radius: 0.2}}}
	rep, err := RunHTTP(ts.URL, w, testPool(), HTTPOptions{Requests: 5, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invalid != 5 {
		t.Fatalf("invalid = %d, want one per request (5): %+v", rep.Invalid, rep)
	}
}

func TestRunHTTPSendsBothEndpoints(t *testing.T) {
	var ranges, nns atomic.Int64
	ts := stubServer(t, func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Query  json.RawMessage `json:"query"`
			Radius *float64        `json:"radius"`
			K      *int            `json:"k"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body.Query) == 0 {
			t.Errorf("malformed generator request: %v", err)
		}
		switch r.URL.Path {
		case "/v1/range":
			if body.Radius == nil || body.K != nil {
				t.Errorf("range request with wrong params")
			}
			ranges.Add(1)
		case "/v1/nn":
			if body.K == nil || body.Radius != nil {
				t.Errorf("nn request with wrong params")
			}
			nns.Add(1)
		}
		json.NewEncoder(w).Encode(map[string]interface{}{"matches": []interface{}{}})
	})
	w := &workload.Workload{Classes: []workload.QueryClass{
		{Name: "r", Weight: 1, Radius: 0.2},
		{Name: "k", Weight: 1, K: 3},
	}}
	rep, err := RunHTTP(ts.URL, w, testPool(), HTTPOptions{Requests: 20, Workers: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 20 || ranges.Load() != 10 || nns.Load() != 10 {
		t.Fatalf("split wrong: ok=%d ranges=%d nns=%d", rep.OK, ranges.Load(), nns.Load())
	}
}

func TestRunHTTPValidatesInput(t *testing.T) {
	w := &workload.Workload{Classes: []workload.QueryClass{{Name: "r", Weight: 1, Radius: 0.2}}}
	if _, err := RunHTTP("http://x", w, nil, HTTPOptions{}); err == nil {
		t.Fatal("empty query pool must be rejected")
	}
	if _, err := RunHTTP("http://x", &workload.Workload{}, testPool(), HTTPOptions{}); err == nil {
		t.Fatal("empty workload must be rejected")
	}
}
