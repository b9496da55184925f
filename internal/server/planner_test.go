package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcost"
	"mcost/internal/obs"
)

// The facade engines are planning engines.
var (
	_ Planner = (*mcost.Index)(nil)
	_ Planner = (*mcost.ShardedIndex)(nil)
)

func TestPlanAttachedToResponses(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.05}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp[QueryResponse](t, rec)
	if resp.Plan == nil {
		t.Fatal("planning engine returned no plan")
	}
	if resp.Plan.Engine != "tree" && resp.Plan.Engine != "scan" {
		t.Fatalf("plan engine %q", resp.Plan.Engine)
	}
	if resp.Plan.PredictedScan.DistCalcs != float64(testIndex(t).Size()) {
		t.Fatalf("plan scan dists %g, index size %d", resp.Plan.PredictedScan.DistCalcs, testIndex(t).Size())
	}
	if resp.Plan.Reason == "" {
		t.Fatal("empty plan reason")
	}

	rec = post(t, h, "/v1/nn", `{"query":[0.5,0.5,0.5,0.5],"k":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("nn status %d: %s", rec.Code, rec.Body.String())
	}
	if nn := decodeResp[QueryResponse](t, rec); nn.Plan == nil {
		t.Fatal("nn response has no plan")
	}
}

func TestPlanCeilingRejects(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{PlanCeiling: 0.5, Registry: reg})
	h := s.Handler()

	rec := post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.4}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	er := decodeResp[ErrorResponse](t, rec)
	if er.Code != "plan_rejected" {
		t.Fatalf("code %q", er.Code)
	}
	if er.PredictedCost == nil || er.PredictedCost.NodeReads+er.PredictedCost.DistCalcs <= 0.5 {
		t.Fatalf("rejection carries no cost above the ceiling: %+v", er.PredictedCost)
	}
	if got := reg.Counter("server.plan_rejected").Value(); got != 1 {
		t.Fatalf("plan_rejected counter = %d", got)
	}
	if want := "cheapest plan (scan) prices at 608 node reads + distance computations, above the ceiling 0"; er.Error != want {
		t.Fatalf("message %q, want %q", er.Error, want)
	}
	// The rejected query never reached admission or the batcher.
	if got := reg.Counter("server.admitted").Value(); got != 0 {
		t.Fatalf("admitted counter = %d after a plan rejection", got)
	}
}

func TestPlanCountersAndGauges(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Registry: reg})
	h := s.Handler()

	// A tiny radius is a clear tree win on a 600-object uniform dataset.
	rec := post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.01}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := reg.Counter("server.plan_tree").Value(); got != 1 {
		t.Fatalf("plan_tree counter = %d", got)
	}

	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if srec.Code != http.StatusOK {
		t.Fatalf("stats status %d", srec.Code)
	}
	body := srec.Body.String()
	for _, g := range []string{
		"advisor.d2", "advisor.concentration", "advisor.intrinsic_dim",
		"advisor.scan_nodes", "advisor.scan_dists",
		"advisor.crossover_radius", "advisor.crossover_k",
	} {
		if !strings.Contains(body, g) {
			t.Fatalf("stats envelope missing gauge %q:\n%s", g, body)
		}
	}
	prof := testIndex(t).Hardness()
	if g := reg.Gauge("advisor.intrinsic_dim").Value(); g != prof.IntrinsicDim {
		t.Fatalf("gauge intrinsic_dim %g, profile %g", g, prof.IntrinsicDim)
	}
}

// TestServerScanModeBitIdentical serves an index forced into scan mode
// and checks the HTTP results equal direct scan execution.
func TestServerScanModeBitIdentical(t *testing.T) {
	ix := testIndex(t)
	if err := ix.SetEngineMode(mcost.EngineScan); err != nil {
		t.Fatal(err)
	}
	defer ix.SetEngineMode(mcost.EngineTree)
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec := post(t, h, "/v1/range", `{"query":[0.5,0.5,0.5,0.5],"radius":0.3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeResp[QueryResponse](t, rec)
	// Predicted is the scan's fixed price: every object compared.
	if resp.Predicted.DistCalcs != float64(ix.Size()) {
		t.Fatalf("scan-mode predicted dists %g, size %d", resp.Predicted.DistCalcs, ix.Size())
	}
	q := mcost.Vector{0.5, 0.5, 0.5, 0.5}
	direct, err := ix.RangeBatchTraced(t.Context(), []mcost.Object{q}, 0.3, mcost.QueryBudget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != len(direct[0]) {
		t.Fatalf("%d matches over HTTP, %d direct", len(resp.Matches), len(direct[0]))
	}
	for i, m := range resp.Matches {
		if m.OID != direct[0][i].OID || m.Distance != direct[0][i].Distance {
			t.Fatalf("match %d: (%d,%v) over HTTP, (%d,%v) direct",
				i, m.OID, m.Distance, direct[0][i].OID, direct[0][i].Distance)
		}
	}
}
