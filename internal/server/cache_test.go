package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcost"
	"mcost/internal/budget"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/rescache"
)

// testCache builds a result cache speaking the test index's exact
// metric.
func testCache(t testing.TB, entries int) *rescache.Cache {
	t.Helper()
	c, err := rescache.New(rescache.Config{Entries: entries, Dist: testIndex(t).Space().Distance})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestE2ECacheHitsBypassAdmission pins the token accounting: a cache
// hit answers before the admitter runs, so repeats of a cached query
// keep succeeding after the token bucket is exhausted — and a fresh
// query immediately sheds, proving the bucket really was empty the
// whole time the hits were served.
func TestE2ECacheHitsBypassAdmission(t *testing.T) {
	ix := testIndex(t)
	cache := testCache(t, 16)
	s, err := New(Config{
		Engine: ix,
		Decode: VectorDecoder(4),
		// The burst covers exactly one admission; refill is effectively
		// zero for the lifetime of the test.
		Admission: AdmitConfig{NodeReadsPerSec: 1e-9, BurstSeconds: 1, MaxQueueDelay: time.Millisecond},
		Cache:     cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := mcost.Vector{0.3, 0.6, 0.2, 0.9}
	const radius = 0.35
	want, err := ix.Range(q, radius)
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]interface{}{"query": q, "radius": radius}

	// First request spends the whole burst and populates the cache.
	resp, payload := postJSON(t, ts.Client(), ts.URL+"/v1/range", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: status %d: %s", resp.StatusCode, payload)
	}
	var qr QueryResponse
	if err := json.Unmarshal(payload, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Cached {
		t.Fatalf("first query cannot be a cache hit: %s", payload)
	}

	// Repeats are exact containment hits: 200, marked cached, never
	// touching admitter or batcher, bit-identical to direct execution.
	const repeats = 4
	for i := 0; i < repeats; i++ {
		resp, payload := postJSON(t, ts.Client(), ts.URL+"/v1/range", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat %d: status %d with an exhausted bucket — the hit charged tokens: %s",
				i, resp.StatusCode, payload)
		}
		var qr QueryResponse
		if err := json.Unmarshal(payload, &qr); err != nil {
			t.Fatal(err)
		}
		if !qr.Cached {
			t.Fatalf("repeat %d not served from cache: %s", i, payload)
		}
		if qr.BatchSize != 0 || qr.QueuedMS != 0 {
			t.Fatalf("cache hit reports batcher work: %s", payload)
		}
		if len(qr.Matches) != len(want) {
			t.Fatalf("repeat %d: cache served %d matches, direct %d", i, len(qr.Matches), len(want))
		}
		for j := range want {
			if qr.Matches[j].OID != want[j].OID ||
				math.Float64bits(qr.Matches[j].Distance) != math.Float64bits(want[j].Distance) {
				t.Fatalf("repeat %d match %d not bit-identical to direct execution", i, j)
			}
		}
	}

	// A query the cache cannot prove must fall through to admission and
	// shed against the empty bucket.
	resp, payload = postJSON(t, ts.Client(), ts.URL+"/v1/range",
		map[string]interface{}{"query": mcost.Vector{0.9, 0.1, 0.8, 0.1}, "radius": 0.4})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("uncached query against an empty bucket: status %d: %s", resp.StatusCode, payload)
	}

	snap := s.Registry().Snapshot()
	if snap.Counters["server.admitted"] != 1 {
		t.Fatalf("admitted %d queries, want exactly the one miss", snap.Counters["server.admitted"])
	}
	if snap.Counters["server.cache_hits"] != repeats {
		t.Fatalf("server.cache_hits = %d, want %d", snap.Counters["server.cache_hits"], repeats)
	}
	if snap.Counters["server.cache_saved_node_reads"] <= 0 {
		t.Fatalf("cache hits saved no node reads: %v", snap.Counters)
	}
}

// TestE2ECacheZipfHitRate drives the Zipf-shaped closed-loop workload —
// the traffic a result cache exists for — and pins the acceptance
// floor: at least half the requests served from cache, with zero
// errors and zero invalid matches.
func TestE2ECacheZipfHitRate(t *testing.T) {
	cache := testCache(t, 256)
	s, err := New(Config{
		Engine:    testIndex(t),
		Decode:    VectorDecoder(4),
		Admission: AdmitConfig{NodeReadsPerSec: 1e7, DistCalcsPerSec: 1e9},
		Cache:     cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := RunHTTP(ts.URL, smokeWorkload(), testQueryPool(), HTTPOptions{
		Requests: 240, Workers: 6, Seed: 11, ZipfS: 1.5, Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("zipf: %+v (hit rate %.0f%%)", rep, 100*float64(rep.CacheHits)/float64(rep.Requests))
	if rep.Errors != 0 || rep.Invalid != 0 || rep.Shed != 0 {
		t.Fatalf("zipf run must be clean: %+v", rep)
	}
	if rep.OK+rep.Partial != rep.Requests {
		t.Fatalf("responses do not add up: %+v", rep)
	}
	if 2*rep.CacheHits < rep.Requests {
		t.Fatalf("zipf traffic hit the cache only %d/%d times, want >= 50%%", rep.CacheHits, rep.Requests)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.cache_hits"] != int64(rep.CacheHits) {
		t.Fatalf("server counted %d hits, clients saw %d",
			snap.Counters["server.cache_hits"], rep.CacheHits)
	}
	if snap.Counters["server.cache_misses"] != int64(rep.Requests-rep.CacheHits) {
		t.Fatalf("server counted %d misses for %d uncached requests",
			snap.Counters["server.cache_misses"], rep.Requests-rep.CacheHits)
	}
}

// TestCacheNeverPopulatedFromPartialResults pins the population guard:
// budget-stopped (partial) result sets verify no containment ball and
// must never enter the cache.
func TestCacheNeverPopulatedFromPartialResults(t *testing.T) {
	cache := testCache(t, 16)
	s, err := New(Config{
		Engine: testIndex(t),
		Decode: VectorDecoder(4),
		// A budget floored at the tree height: wide queries always stop
		// early with budget.ErrExceeded partials.
		BudgetSlack: 1e-6,
		Cache:       cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		q := mcost.Vector{0.1 * float64(i), 0.5, 0.5, 0.5}
		resp, payload := postJSON(t, ts.Client(), ts.URL+"/v1/range",
			map[string]interface{}{"query": q, "radius": 0.45})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, payload)
		}
		var qr QueryResponse
		if err := json.Unmarshal(payload, &qr); err != nil {
			t.Fatal(err)
		}
		if !qr.Partial || qr.Degraded != "budget_exceeded" {
			t.Fatalf("query %d was not budget-degraded (%s); the test needs partials", i, payload)
		}
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("%d partial result sets entered the cache", n)
	}
}

// faultEngine fails every dispatch the way a broken storage layer
// would: a hard error with empty per-query sets.
type faultEngine struct {
	Engine
}

func (e *faultEngine) RangeBatchTraced(ctx context.Context, qs []metric.Object, radius float64, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	out := make([][]mtree.Match, len(qs))
	for i := range out {
		out[i] = []mtree.Match{}
	}
	return out, errors.New("injected page fault")
}

func (e *faultEngine) NNBatchTraced(ctx context.Context, qs []metric.Object, k int, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	out := make([][]mtree.Match, len(qs))
	for i := range out {
		out[i] = []mtree.Match{}
	}
	return out, errors.New("injected page fault")
}

// TestCacheNeverPopulatedFromFailedDispatches pins the other half of
// the population guard: a failed engine dispatch (500) must leave the
// cache untouched.
func TestCacheNeverPopulatedFromFailedDispatches(t *testing.T) {
	cache := testCache(t, 16)
	s, err := New(Config{
		Engine: &faultEngine{Engine: testIndex(t)},
		Decode: VectorDecoder(4),
		Cache:  cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, body := range []map[string]interface{}{
		{"query": mcost.Vector{0.2, 0.4, 0.6, 0.8}, "radius": 0.3},
		{"query": mcost.Vector{0.2, 0.4, 0.6, 0.8}, "k": 3},
	} {
		path := ts.URL + "/v1/range"
		if _, nn := body["k"]; nn {
			path = ts.URL + "/v1/nn"
		}
		resp, payload := postJSON(t, ts.Client(), path, body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted dispatch %d: status %d: %s", i, resp.StatusCode, payload)
		}
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("%d failed dispatches entered the cache", n)
	}
}

// TestServerSmokeCacheEnabled is the CI smoke leg with the cache in
// front of the full stack — admission, micro-batching, Zipf traffic —
// under -race: everything stays clean and the cache actually serves.
func TestServerSmokeCacheEnabled(t *testing.T) {
	cache := testCache(t, 256)
	s, err := New(Config{
		Engine:    testIndex(t),
		Decode:    VectorDecoder(4),
		Admission: AdmitConfig{NodeReadsPerSec: 1e7, DistCalcsPerSec: 1e9},
		Batch:     BatchConfig{Window: 5 * time.Millisecond, MaxBatch: 8},
		Cache:     cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := RunHTTP(ts.URL, smokeWorkload(), testQueryPool(), HTTPOptions{
		Requests: 120, Workers: 6, Seed: 3, ZipfS: 1.4, Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cache-enabled smoke: %+v", rep)
	if rep.Shed != 0 || rep.Errors != 0 || rep.Invalid != 0 {
		t.Errorf("cache-enabled smoke must be clean: %+v", rep)
	}
	if rep.OK+rep.Partial != 120 {
		t.Errorf("responses do not add up: %+v", rep)
	}
	if rep.CacheHits == 0 {
		t.Errorf("zipf smoke traffic never hit the cache: %+v", rep)
	}
	if cache.Len() == 0 {
		t.Errorf("cache never populated")
	}
}
