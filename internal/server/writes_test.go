package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mcost"
	"mcost/internal/dataset"
	"mcost/internal/obs"
	"mcost/internal/recal"
	"mcost/internal/rescache"
)

// writableIndex builds a private mutable index per test — the shared
// read-only testIndex must never see writes.
func writableIndex(t testing.TB, seed int64) *mcost.Index {
	t.Helper()
	d := dataset.Uniform(400, 4, seed)
	ix, err := mcost.Build(d.Space, d.Objects, mcost.Options{Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newWritableServer(t testing.TB, cfg Config) (*Server, *mcost.Index) {
	t.Helper()
	ix := writableIndex(t, 21)
	cfg.Engine = ix
	if cfg.Decode == nil {
		cfg.Decode = VectorDecoder(4)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, ix
}

// TestWriteEndpointsRoundTrip drives the full write lifecycle over
// HTTP: insert an object, find it with a range query at distance zero,
// delete it by the returned OID, verify it is gone, and verify a
// second delete of the same OID is a typed 404.
func TestWriteEndpointsRoundTrip(t *testing.T) {
	s, ix := newWritableServer(t, Config{})
	h := s.Handler()
	size0 := ix.Size()

	rec := post(t, h, "/v1/insert", `{"object":[0.41,0.43,0.47,0.49]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", rec.Code, rec.Body.String())
	}
	ins := decodeResp[InsertResponse](t, rec)
	if ins.Size != size0+1 {
		t.Fatalf("insert reported size %d, want %d", ins.Size, size0+1)
	}

	// The inserted object is immediately visible to queries, under its
	// reported OID.
	rec = post(t, h, "/v1/range", `{"query":[0.41,0.43,0.47,0.49],"radius":0.0001}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-insert query: status %d: %s", rec.Code, rec.Body.String())
	}
	qr := decodeResp[QueryResponse](t, rec)
	found := false
	for _, m := range qr.Matches {
		if m.OID == ins.OID {
			if m.Distance != 0 {
				t.Fatalf("inserted object at distance %v from itself", m.Distance)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted OID %d not visible to queries: %s", ins.OID, rec.Body.String())
	}

	raw, _ := json.Marshal(map[string]interface{}{
		"object": []float64{0.41, 0.43, 0.47, 0.49}, "oid": ins.OID,
	})
	rec = post(t, h, "/v1/delete", string(raw))
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body.String())
	}
	del := decodeResp[DeleteResponse](t, rec)
	if !del.Deleted || del.Size != size0 {
		t.Fatalf("delete response %+v, want deleted with size %d", del, size0)
	}

	rec = post(t, h, "/v1/range", `{"query":[0.41,0.43,0.47,0.49],"radius":0.0001}`)
	qr = decodeResp[QueryResponse](t, rec)
	for _, m := range qr.Matches {
		if m.OID == ins.OID {
			t.Fatalf("deleted OID %d still answers queries", ins.OID)
		}
	}

	// Deleting a dead OID is a typed 404, not corruption or a 500.
	rec = post(t, h, "/v1/delete", string(raw))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("re-delete: status %d, want 404: %s", rec.Code, rec.Body.String())
	}
	if er := decodeResp[ErrorResponse](t, rec); er.Code != "not_found" {
		t.Fatalf("re-delete code %q, want not_found", er.Code)
	}

	snap := s.Registry().Snapshot()
	if snap.Counters["server.inserts"] != 1 || snap.Counters["server.deletes"] != 1 {
		t.Errorf("write counters wrong: %v", snap.Counters)
	}
}

// TestWriteTypedRejections pins the write decoders' 4xx contract,
// mirroring the query-side rejection table.
func TestWriteTypedRejections(t *testing.T) {
	s, _ := newWritableServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"bad json", "/v1/insert", `{"object":`, http.StatusBadRequest, "bad_json"},
		{"unknown field", "/v1/insert", `{"object":[0,0,0,0],"bogus":1}`, http.StatusBadRequest, "bad_json"},
		{"missing object", "/v1/insert", `{}`, http.StatusBadRequest, "missing_object"},
		{"wrong dim", "/v1/insert", `{"object":[0,0]}`, http.StatusBadRequest, "bad_object"},
		{"oid on insert", "/v1/insert", `{"object":[0,0,0,0],"oid":3}`, http.StatusBadRequest, "bad_oid"},
		{"missing oid", "/v1/delete", `{"object":[0,0,0,0]}`, http.StatusBadRequest, "missing_oid"},
		{"delete bad object", "/v1/delete", `{"object":"hi","oid":1}`, http.StatusBadRequest, "bad_object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.status, rec.Body.String())
			}
			if er := decodeResp[ErrorResponse](t, rec); er.Code != tc.code {
				t.Errorf("code %q, want %q", er.Code, tc.code)
			}
		})
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/insert", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/insert: status %d, want 405", rec.Code)
	}
}

// TestDefaultMaxKFollowsWrites: with Config.MaxK unset the k-NN cap is
// the live object count, so k up to the size after inserts is served
// and k above it is a typed 400.
func TestDefaultMaxKFollowsWrites(t *testing.T) {
	s, ix := newWritableServer(t, Config{})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"object":[0.1,0.2,0.3,%g]}`, 0.1*float64(i))
		if rec := post(t, h, "/v1/insert", body); rec.Code != http.StatusOK {
			t.Fatalf("insert %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	size := ix.Size()
	rec := post(t, h, "/v1/nn", fmt.Sprintf(`{"query":[0.5,0.5,0.5,0.5],"k":%d}`, size))
	if rec.Code != http.StatusOK {
		t.Fatalf("k = %d with %d objects: status %d: %s", size, size, rec.Code, rec.Body.String())
	}
	if qr := decodeResp[QueryResponse](t, rec); len(qr.Matches) != size {
		t.Fatalf("k = %d: %d matches", size, len(qr.Matches))
	}
	rec = post(t, h, "/v1/nn", fmt.Sprintf(`{"query":[0.5,0.5,0.5,0.5],"k":%d}`, size+1))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("k = %d with %d objects: status %d, want 400", size+1, size, rec.Code)
	}
	if er := decodeResp[ErrorResponse](t, rec); er.Code != "bad_k" {
		t.Errorf("code %q, want bad_k", er.Code)
	}
}

// readOnlyEngine hides the facade's write methods: it satisfies Engine
// through embedding but not Mutable.
type readOnlyEngine struct {
	Engine
}

// TestWritesOnReadOnlyEngineAre501: an engine without Insert/Delete
// serves queries normally and rejects writes with a typed 501.
func TestWritesOnReadOnlyEngineAre501(t *testing.T) {
	s, err := New(Config{Engine: readOnlyEngine{testIndex(t)}, Decode: VectorDecoder(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, path := range []string{"/v1/insert", "/v1/delete"} {
		rec := post(t, h, path, `{"object":[0,0,0,0],"oid":1}`)
		if rec.Code != http.StatusNotImplemented {
			t.Fatalf("%s on read-only engine: status %d, want 501", path, rec.Code)
		}
		if er := decodeResp[ErrorResponse](t, rec); er.Code != "read_only" {
			t.Errorf("%s code %q, want read_only", path, er.Code)
		}
	}
	rec := post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("read-only engine must still serve queries: status %d", rec.Code)
	}
}

// TestE2EDeleteInvalidatesCachedResults is the end-to-end regression
// for the stale-delete bug: a cached range result whose ball contains
// an object must stop serving the moment that object is deleted over
// HTTP. Before write-epoch invalidation the second probe below was a
// cache hit that resurrected the deleted OID.
func TestE2EDeleteInvalidatesCachedResults(t *testing.T) {
	ix := writableIndex(t, 23)
	cache, err := rescache.New(rescache.Config{Entries: 16, Dist: ix.Space().Distance})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: ix, Decode: VectorDecoder(4), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	q := mcost.Vector{0.5, 0.5, 0.5, 0.5}
	const radius = 0.35
	direct, err := ix.Range(q, radius)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) == 0 {
		t.Fatal("test query must have matches")
	}
	victim := direct[0]

	body, _ := json.Marshal(map[string]interface{}{"query": q, "radius": radius})
	rec := post(t, h, "/v1/range", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("populate query: status %d: %s", rec.Code, rec.Body.String())
	}
	// Prove the entry is resident: an immediate repeat is a hit.
	rec = post(t, h, "/v1/range", string(body))
	if qr := decodeResp[QueryResponse](t, rec); !qr.Cached {
		t.Fatalf("repeat before the write must be a cache hit: %s", rec.Body.String())
	}

	delBody, _ := json.Marshal(map[string]interface{}{"object": victim.Object, "oid": victim.OID})
	rec = post(t, h, "/v1/delete", string(delBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body.String())
	}

	// Repeats after the delete must re-execute (the cached ball is
	// stale) and must never surface the deleted OID again.
	for i := 0; i < 2; i++ {
		rec = post(t, h, "/v1/range", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("post-delete query %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		qr := decodeResp[QueryResponse](t, rec)
		if i == 0 && qr.Cached {
			t.Fatalf("query after a delete served from the pre-delete cache: %s", rec.Body.String())
		}
		for _, m := range qr.Matches {
			if m.OID == victim.OID {
				t.Fatalf("deleted OID %d resurrected by the result cache", victim.OID)
			}
		}
		if len(qr.Matches) != len(direct)-1 {
			t.Fatalf("post-delete query %d returned %d matches, want %d", i, len(qr.Matches), len(direct)-1)
		}
	}
}

// TestStatsReportRecalGauges: once recalibration is enabled on the
// engine, /v1/stats snapshots carry the drift gauges.
func TestStatsReportRecalGauges(t *testing.T) {
	ix := writableIndex(t, 29)
	if err := ix.EnableRecalibration(recal.Config{Band: 0.25}, nil); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: ix, Decode: VectorDecoder(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	// A few writes and a query give the gauges real state to report.
	for _, body := range []string{
		`{"object":[0.11,0.12,0.13,0.14]}`,
		`{"object":[0.21,0.22,0.23,0.24]}`,
	} {
		if rec := post(t, h, "/v1/insert", body); rec.Code != http.StatusOK {
			t.Fatalf("insert: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if rec := post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.2}`); rec.Code != http.StatusOK {
		t.Fatalf("query: status %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var env obs.Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"recal.window_error", "recal.band", "recal.in_band", "recal.drift_alarms"} {
		if _, ok := env.Metrics.Gauges[g]; !ok {
			t.Errorf("stats missing gauge %q: %v", g, env.Metrics.Gauges)
		}
	}
	if got := env.Metrics.Gauges["recal.band"]; got != 0.25 {
		t.Errorf("recal.band gauge %v, want the configured 0.25", got)
	}
}

// TestServerSmokeChurn is the CI churn leg under -race: the closed-loop
// generator mixes live inserts and deletes into Zipf query traffic
// against the full stack — write lock, cache epochs, micro-batcher,
// recalibration — and everything must stay clean and add up.
func TestServerSmokeChurn(t *testing.T) {
	ix := writableIndex(t, 31)
	if err := ix.EnableRecalibration(recal.Config{}, nil); err != nil {
		t.Fatal(err)
	}
	cache, err := rescache.New(rescache.Config{Entries: 128, Dist: ix.Space().Distance})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Engine:    ix,
		Decode:    VectorDecoder(4),
		Admission: AdmitConfig{NodeReadsPerSec: 1e7, DistCalcsPerSec: 1e9},
		Batch:     BatchConfig{Window: 2 * time.Millisecond, MaxBatch: 8},
		Cache:     cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	size0 := ix.Size()
	rep, err := RunHTTP(ts.URL, smokeWorkload(), testQueryPool(), HTTPOptions{
		Requests: 150, Workers: 6, Seed: 13, ZipfS: 1.3, Client: ts.Client(),
		InsertFrac: 0.2, DeleteFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("churn smoke: %+v", rep)
	if rep.Errors != 0 || rep.Invalid != 0 || rep.Shed != 0 {
		t.Fatalf("churn smoke must be clean: %+v", rep)
	}
	if rep.Inserts == 0 || rep.Deletes == 0 {
		t.Fatalf("churn smoke must exercise both write paths: %+v", rep)
	}
	if rep.OK+rep.Partial+rep.Inserts+rep.Deletes != rep.Requests {
		t.Fatalf("responses do not add up: %+v", rep)
	}
	if got, want := ix.Size(), size0+rep.Inserts-rep.Deletes; got != want {
		t.Fatalf("engine size %d after churn, want %d (start %d, +%d -%d)",
			got, want, size0, rep.Inserts, rep.Deletes)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.inserts"] != int64(rep.Inserts) ||
		snap.Counters["server.deletes"] != int64(rep.Deletes) {
		t.Fatalf("server write counters disagree with the client: %v vs %+v", snap.Counters, rep)
	}
}
