package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
)

// stubEngine is a minimal mutable engine whose Insert blocks until
// released — the controllable stuck writer the wedge tests need.
type stubEngine struct {
	entered chan struct{}
	release chan struct{}
}

func newStubEngine() *stubEngine {
	return &stubEngine{entered: make(chan struct{}), release: make(chan struct{})}
}

func (e *stubEngine) PriceRange(radius float64) core.CostEstimate { return core.CostEstimate{} }
func (e *stubEngine) PriceNN(k int) core.CostEstimate             { return core.CostEstimate{} }
func (e *stubEngine) RangeBatchTraced(ctx context.Context, qs []metric.Object, radius float64, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	return make([][]mtree.Match, len(qs)), nil
}
func (e *stubEngine) NNBatchTraced(ctx context.Context, qs []metric.Object, k int, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	return make([][]mtree.Match, len(qs)), nil
}
func (e *stubEngine) Size() int     { return 10 }
func (e *stubEngine) NumNodes() int { return 3 }
func (e *stubEngine) Height() int   { return 2 }
func (e *stubEngine) PageSize() int { return 4096 }

func (e *stubEngine) Insert(obj metric.Object) (uint64, error) {
	close(e.entered)
	<-e.release
	return 1, nil
}
func (e *stubEngine) Delete(obj metric.Object, oid uint64) error { return nil }

// wedgeClock is a hand-advanced clock for the wedge threshold.
type wedgeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *wedgeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *wedgeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func getHealth(t *testing.T, h http.Handler) (int, HealthResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var hr HealthResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &hr); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return rr.Code, hr
}

// Liveness: a write holding (or waiting on) the writer lock past the
// threshold turns /healthz into 503 "wedged", and recovery restores
// 200 — the signal a router's health loop fails over on.
func TestHealthWedged(t *testing.T) {
	eng := newStubEngine()
	clk := &wedgeClock{now: time.Unix(1000, 0)}
	s, err := New(Config{
		Engine:         eng,
		Decode:         VectorDecoder(4),
		WedgeThreshold: time.Second,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	if code, hr := getHealth(t, h); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("idle healthz = %d %+v, want 200 ok", code, hr)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/v1/insert", strings.NewReader(`{"object":[1,2,3,4]}`))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-eng.entered // the write now holds the writer lock

	// (No healthy-path probe here: the 200 branch reads engine stats
	// under the readers-writer lock the stuck writer holds, so only the
	// wedged branch — which takes no lock — stays answerable.)
	clk.Advance(3 * time.Second)
	code, hr := getHealth(t, h)
	if code != http.StatusServiceUnavailable || hr.Status != "wedged" {
		t.Fatalf("healthz with a stuck write = %d %+v, want 503 wedged", code, hr)
	}
	if hr.WedgedMS < 2900 {
		t.Errorf("wedged_ms = %g, want >= 2900", hr.WedgedMS)
	}
	if !hr.Ready {
		t.Errorf("wedged response must still report ready=true (liveness, not readiness)")
	}

	close(eng.release)
	<-done
	if code, hr := getHealth(t, h); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz after recovery = %d %+v, want 200 ok", code, hr)
	}
}

// BootingHandler: every route 503s with a typed body while the engine
// builds, so a router's health loop can watch the node without routing
// to it.
func TestBootingHandler(t *testing.T) {
	h := BootingHandler()
	code, hr := getHealth(t, h)
	if code != http.StatusServiceUnavailable || hr.Status != "building" {
		t.Fatalf("booting healthz = %d %+v, want 503 building", code, hr)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/range", strings.NewReader(`{"query":[0,0,0,0],"radius":1}`))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("booting /v1/range = %d, want 503", rr.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Code != "building" {
		t.Fatalf("booting /v1/range body = %q, want typed \"building\"", rr.Body.String())
	}
}

// /v1/model: engines without a wire-exportable model answer a typed
// 404; ModelReporter engines serve their summary verbatim.
func TestModelEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/model", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("/v1/model on a plain index = %d, want 404", rr.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Code != "no_model" {
		t.Fatalf("/v1/model body = %q, want typed \"no_model\"", rr.Body.String())
	}
}

// The 429 retry_after_ms jitter: every value stays in
// [base, base·1.25], and the spread is real — shed clients must not
// stampede back on one tick.
func TestRetryAfterJitterSpread(t *testing.T) {
	s := newTestServer(t, Config{JitterSeed: 42})

	const base = int64(100)
	lo, hi := base, base+int64(float64(base)*retryJitterFrac)
	seen := make(map[int64]bool)
	for i := 0; i < 500; i++ {
		v := s.jitterRetryMS(base)
		if v < lo || v > hi {
			t.Fatalf("jittered retry %d outside [%d, %d]", v, lo, hi)
		}
		seen[v] = true
	}
	if len(seen) < 10 {
		t.Errorf("500 draws produced only %d distinct retry_after_ms values; jitter is not spreading", len(seen))
	}
	// Tiny bases have no jitter span and must come back unchanged (and
	// a zero base is floored to 1ms so Retry-After stays meaningful).
	if v := s.jitterRetryMS(2); v != 2 {
		t.Errorf("jitterRetryMS(2) = %d, want 2", v)
	}
	if v := s.jitterRetryMS(0); v != 1 {
		t.Errorf("jitterRetryMS(0) = %d, want 1", v)
	}

	// Determinism: the same seed replays the same sequence — the pin
	// that makes shed-storm tests reproducible.
	s2 := newTestServer(t, Config{JitterSeed: 42})
	s3 := newTestServer(t, Config{JitterSeed: 42})
	for i := 0; i < 50; i++ {
		if a, b := s2.jitterRetryMS(base), s3.jitterRetryMS(base); a != b {
			t.Fatalf("draw %d: same seed diverged: %d vs %d", i, a, b)
		}
	}
}
