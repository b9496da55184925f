package server

import (
	"net/http/httptest"
	"testing"
	"time"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/workload"
)

// testQueryPool regenerates the test index's dataset to use its objects
// as the generator's query pool.
func testQueryPool() []metric.Object {
	return dataset.Uniform(600, 4, 7).Objects
}

// The CI server-smoke job runs these two tests under -race: a serving
// stack driven end to end by the closed-loop HTTP workload generator,
// at low load (nothing sheds, nothing degrades) and under overload
// (admission sheds, and what is admitted stays clean).

func smokeWorkload() *workload.Workload {
	return &workload.Workload{Classes: []workload.QueryClass{
		{Name: "lookup", Weight: 3, Radius: 0.15},
		{Name: "discovery", Weight: 1, Radius: 0.4},
		{Name: "top5", Weight: 1, K: 5},
	}}
}

func TestServerSmokeLowLoad(t *testing.T) {
	ix := testIndex(t)
	s, err := New(Config{
		Engine: ix,
		Decode: VectorDecoder(4),
		// Generous admission: predicted load stays far under capacity.
		Admission: AdmitConfig{NodeReadsPerSec: 1e7, DistCalcsPerSec: 1e9},
		Batch:     BatchConfig{Window: 5 * time.Millisecond, MaxBatch: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := RunHTTP(ts.URL, smokeWorkload(), testQueryPool(), HTTPOptions{
		Requests: 120, Workers: 6, Seed: 3, Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("low load: %+v", rep)
	if rep.Requests != 120 {
		t.Fatalf("issued %d requests, want 120", rep.Requests)
	}
	if rep.Shed != 0 {
		t.Errorf("low load must not shed, got %d", rep.Shed)
	}
	if rep.Errors != 0 || rep.Invalid != 0 {
		t.Errorf("low load produced errors=%d invalid=%d", rep.Errors, rep.Invalid)
	}
	if rep.OK+rep.Partial != 120 {
		t.Errorf("responses do not add up: %+v", rep)
	}
}

func TestServerSmokeOverloadShedsCleanly(t *testing.T) {
	ix := testIndex(t)
	s, err := New(Config{
		Engine: ix,
		Decode: VectorDecoder(4),
		// Tiny node-read capacity: the burst admits a handful, the rest
		// shed. A tight budget slack also degrades some admitted
		// queries, whose partial results must still be clean.
		Admission:   AdmitConfig{NodeReadsPerSec: 30, BurstSeconds: 1, MaxQueueDelay: time.Millisecond},
		BudgetSlack: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := RunHTTP(ts.URL, smokeWorkload(), testQueryPool(), HTTPOptions{
		Requests: 120, Workers: 12, Seed: 5, Backoff: true, MaxBackoff: time.Millisecond,
		Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("overload: %+v", rep)
	if rep.Shed == 0 {
		t.Fatalf("overload must shed, got %+v", rep)
	}
	if rep.OK+rep.Partial == 0 {
		t.Fatalf("overload must still admit some queries, got %+v", rep)
	}
	if rep.Invalid != 0 {
		t.Fatalf("admitted queries returned %d out-of-radius matches under overload", rep.Invalid)
	}
	if rep.Errors != 0 {
		t.Fatalf("overload produced %d hard errors, want typed sheds only", rep.Errors)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.shed"] != int64(rep.Shed) {
		t.Errorf("server counted %d sheds, client saw %d", snap.Counters["server.shed"], rep.Shed)
	}
}
