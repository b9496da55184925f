package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcost"
	"mcost/internal/dataset"
	"mcost/internal/obs"
)

// The facade's Index is an engine this layer serves.
var _ Engine = (*mcost.Index)(nil)

var (
	testIxOnce sync.Once
	testIx     *mcost.Index
)

// testIndex builds one small uniform index shared by the handler tests
// (read-only queries are safe concurrently).
func testIndex(t testing.TB) *mcost.Index {
	testIxOnce.Do(func() {
		d := dataset.Uniform(600, 4, 7)
		ix, err := mcost.Build(d.Space, d.Objects, mcost.Options{Seed: 7, Workers: 1})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		testIx = ix
	})
	return testIx
}

func newTestServer(t testing.TB, cfg Config) *Server {
	ix := testIndex(t)
	cfg.Engine = ix
	if cfg.Decode == nil {
		cfg.Decode = VectorDecoder(4)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func post(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeResp[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode response %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestRangeEndpointMatchesDirectExecution(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	rec := post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp[QueryResponse](t, rec)
	if resp.Partial {
		t.Fatalf("unexpected partial result: %+v", resp)
	}
	if resp.Predicted.NodeReads <= 0 || resp.Predicted.DistCalcs <= 0 {
		t.Errorf("response must carry the admission prediction, got %+v", resp.Predicted)
	}
	want, err := testIndex(t).Range(mcost.Vector{0.5, 0.5, 0.5, 0.5}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != len(want) {
		t.Fatalf("HTTP returned %d matches, direct execution %d", len(resp.Matches), len(want))
	}
	for i, m := range resp.Matches {
		if m.OID != want[i].OID || m.Distance != want[i].Distance {
			t.Errorf("match %d diverges: HTTP (%d, %v) vs direct (%d, %v)",
				i, m.OID, m.Distance, want[i].OID, want[i].Distance)
		}
	}
}

func TestNNEndpointMatchesDirectExecution(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s.Handler(), "/v1/nn", `{"query":[0.1,0.9,0.2,0.8],"k":5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp[QueryResponse](t, rec)
	want, err := testIndex(t).NN(mcost.Vector{0.1, 0.9, 0.2, 0.8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 5 || len(want) != 5 {
		t.Fatalf("want 5 neighbors, got HTTP %d direct %d", len(resp.Matches), len(want))
	}
	for i := range want {
		if resp.Matches[i].OID != want[i].OID || resp.Matches[i].Distance != want[i].Distance {
			t.Errorf("neighbor %d diverges", i)
		}
	}
}

func TestTypedRejections(t *testing.T) {
	s := newTestServer(t, Config{MaxBodyBytes: 256})
	h := s.Handler()
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"bad json", "/v1/range", `{"query":`, http.StatusBadRequest, "bad_json"},
		{"unknown field", "/v1/range", `{"query":[0,0,0,0],"radius":0.1,"bogus":1}`, http.StatusBadRequest, "bad_json"},
		{"missing query", "/v1/range", `{"radius":0.1}`, http.StatusBadRequest, "missing_query"},
		{"missing radius", "/v1/range", `{"query":[0,0,0,0]}`, http.StatusBadRequest, "missing_radius"},
		{"negative radius", "/v1/range", `{"query":[0,0,0,0],"radius":-0.5}`, http.StatusBadRequest, "bad_radius"},
		{"k on range", "/v1/range", `{"query":[0,0,0,0],"k":3}`, http.StatusBadRequest, "bad_radius"},
		{"wrong dim", "/v1/range", `{"query":[0,0],"radius":0.1}`, http.StatusBadRequest, "bad_query"},
		{"non-finite coord", "/v1/range", `{"query":[0,0,0,1e999],"radius":0.1}`, http.StatusBadRequest, "bad_query"},
		{"string query in vector space", "/v1/range", `{"query":"hi","radius":0.1}`, http.StatusBadRequest, "bad_query"},
		{"missing k", "/v1/nn", `{"query":[0,0,0,0]}`, http.StatusBadRequest, "missing_k"},
		{"zero k", "/v1/nn", `{"query":[0,0,0,0],"k":0}`, http.StatusBadRequest, "bad_k"},
		{"negative k", "/v1/nn", `{"query":[0,0,0,0],"k":-4}`, http.StatusBadRequest, "bad_k"},
		{"huge k", "/v1/nn", `{"query":[0,0,0,0],"k":100000}`, http.StatusBadRequest, "bad_k"},
		{"radius on nn", "/v1/nn", `{"query":[0,0,0,0],"radius":0.1}`, http.StatusBadRequest, "bad_k"},
		{"oversized body", "/v1/range", `{"query":[0,0,0,0],"radius":0.` + strings.Repeat("0", 400) + `1}`, http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.status, rec.Body.String())
			}
			resp := decodeResp[ErrorResponse](t, rec)
			if resp.Code != tc.code {
				t.Errorf("code %q, want %q", resp.Code, tc.code)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/range", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/range: status %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/stats", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats: status %d", rec.Code)
	}
}

func TestShed429CarriesPredictedCost(t *testing.T) {
	clk := newFakeClock()
	s := newTestServer(t, Config{
		// A bucket too small for even one query, never refilled (fake
		// clock stands still) — and pre-drained below burst so the
		// full-bucket bypass does not apply.
		Admission: AdmitConfig{NodeReadsPerSec: 0.001, BurstSeconds: 1, MaxQueueDelay: time.Millisecond},
		Clock:     clk.now,
	})
	h := s.Handler()
	// First request drains the (tiny) bucket via the full-bucket bypass.
	rec := post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("bypass request: status %d: %s", rec.Code, rec.Body.String())
	}
	rec = post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.4}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp[ErrorResponse](t, rec)
	if resp.Code != "overloaded" {
		t.Errorf("code %q, want overloaded", resp.Code)
	}
	if resp.PredictedCost == nil || resp.PredictedCost.NodeReads <= 0 {
		t.Errorf("429 must carry the predicted cost, got %+v", resp.PredictedCost)
	}
	if resp.RetryAfterMS <= 0 {
		t.Errorf("429 must carry retry_after_ms, got %d", resp.RetryAfterMS)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("429 must set the Retry-After header")
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.shed"] != 1 || snap.Counters["server.admitted"] != 1 {
		t.Errorf("admission counters wrong: %v", snap.Counters)
	}
}

func TestPartialResultsUnderTinyBudget(t *testing.T) {
	s := newTestServer(t, Config{BudgetSlack: 0.01})
	rec := post(t, s.Handler(), "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.9}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp[QueryResponse](t, rec)
	if !resp.Partial || resp.Degraded != "budget_exceeded" {
		t.Fatalf("expected a budget-degraded partial result, got %+v", resp)
	}
	// Partial results are clean: every match is a true match.
	for _, m := range resp.Matches {
		if m.Distance > 0.9 {
			t.Errorf("partial result outside radius: %+v", m)
		}
	}
	if s.Registry().Snapshot().Counters["server.partial"] != 1 {
		t.Errorf("partial counter not bumped")
	}
}

// TestStatsByteIdenticalToSharedEncoder pins the satellite contract:
// /v1/stats serves exactly the canonical obs envelope — the same bytes
// obs.WriteEnvelope produces for the same registry, which is the same
// encoder the experiments' machine-readable output runs through.
func TestStatsByteIdenticalToSharedEncoder(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("server.requests").Add(3)
	reg.Hist("server.batch_size", 4, 0, 64).Observe(2)
	s := newTestServer(t, Config{Registry: reg})
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var want bytes.Buffer
	if err := obs.WriteEnvelope(&want, reg, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Errorf("/v1/stats not byte-identical to obs.WriteEnvelope:\n%s\nvs\n%s", rec.Body.Bytes(), want.Bytes())
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	resp := decodeResp[HealthResponse](t, rec)
	ix := testIndex(t)
	if resp.Status != "ok" || resp.Objects != ix.Size() || resp.Height != ix.Height() {
		t.Errorf("health response wrong: %+v", resp)
	}
}

func TestStringSpaceDecoding(t *testing.T) {
	d := dataset.Words(300, 11)
	ix, err := mcost.Build(d.Space, d.Objects, mcost.Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecoderForSpace(d.Space, d.Objects[0])
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: ix, Decode: dec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	word, _ := d.Objects[0].(string)
	body, _ := json.Marshal(map[string]interface{}{"query": word, "k": 3})
	rec := post(t, s.Handler(), "/v1/nn", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp[QueryResponse](t, rec)
	if len(resp.Matches) != 3 {
		t.Fatalf("want 3 neighbors, got %d", len(resp.Matches))
	}
	if resp.Matches[0].Distance != 0 {
		t.Errorf("nearest neighbor of an indexed word must be itself")
	}
	// Rejections: wrong type and oversized strings.
	rec = post(t, s.Handler(), "/v1/nn", `{"query":[1,2],"k":3}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("vector query in string space: status %d", rec.Code)
	}
	rec = post(t, s.Handler(), "/v1/nn", `{"query":"`+strings.Repeat("x", 10_000)+`","k":3}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized string: status %d", rec.Code)
	}
}

// drainBody makes sure handlers never hang a response writer.
func TestResponsesAreCompleteJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := post(t, s.Handler(), "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.2}`)
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("response not valid JSON: %v", err)
	}
	if err := dec.Decode(&v); err != io.EOF {
		t.Fatalf("trailing data after response JSON: %v", err)
	}
}
