package server

import (
	"net/http"
	"strconv"

	"mcost/internal/advisor"
)

// Planner is the optional planning surface of an Engine: one that can
// price a query on both the metric index and the linear scan and say
// which it runs. *mcost.Index satisfies it at any shard count, picking
// the cheaper; a router quotes the scan but always runs the fan-out. A
// planning engine gets:
//
//   - a plan attached to every query response (chosen engine, both
//     prices, the reason);
//   - plan_tree / plan_scan decision counters on /v1/stats;
//   - the plan ceiling: when Config.PlanCeiling > 0 and the chosen plan
//     prices above it, the query is rejected up front with a typed 422
//     plan_rejected instead of burning its whole budget and returning a
//     partial.
type Planner interface {
	PlanRange(radius float64) (advisor.Decision, error)
	PlanNN(k int) (advisor.Decision, error)
}

// HardnessReporter is the optional surface of an engine that profiled
// how close its dataset sits to the metric-indexing breakdown point:
// /v1/stats carries the profile as advisor.* gauges. *mcost.Index
// satisfies it; a router, which holds no data, does not.
type HardnessReporter interface {
	Hardness() advisor.Profile
}

// PlanJSON is a query plan on the wire.
type PlanJSON struct {
	// Engine is the advisor's choice: "tree", "scan", or
	// "sharded-fanout".
	Engine string `json:"engine"`
	// PredictedTree and PredictedScan are both priced alternatives.
	PredictedTree CostJSON `json:"predicted_tree"`
	PredictedScan CostJSON `json:"predicted_scan"`
	Reason        string   `json:"reason"`
}

func planJSON(d advisor.Decision) *PlanJSON {
	return &PlanJSON{
		Engine:        string(d.Engine),
		PredictedTree: costJSON(d.PredictedTree),
		PredictedScan: costJSON(d.PredictedScan),
		Reason:        d.Reason,
	}
}

// planQuery asks the engine's advisor for the query's plan, under the
// read lock when the engine is mutable (planning reads the live model).
// The ceiling check runs here: a chosen plan pricing above PlanCeiling
// (node reads + distance computations) is a typed 422 — the server will
// not start a query whose plan already exceeds what the operator
// allows.
func (s *Server) planQuery(nn bool, req queryRequest) (*PlanJSON, *RequestError) {
	if s.mut != nil {
		s.wmu.RLock()
		defer s.wmu.RUnlock()
	}
	var (
		d   advisor.Decision
		err error
	)
	if nn {
		d, err = s.planner.PlanNN(req.K)
	} else {
		d, err = s.planner.PlanRange(req.Radius)
	}
	if err != nil {
		// decodeQueryRequest already rejected malformed radii/k, so a planning
		// error here is unexpected input the decoder missed — still a
		// client error, typed as such.
		return nil, badRequest("bad_query", "planning failed: %v", err)
	}
	if best := d.Predicted(); s.ceiling > 0 && best.Nodes+best.Dists > s.ceiling {
		s.cPlanRejected.Inc()
		cost := costJSON(best)
		return nil, &RequestError{
			Status: http.StatusUnprocessableEntity,
			Code:   "plan_rejected",
			Msg:    planRejectedMsg(d, s.ceiling),
			cost:   &cost,
		}
	}
	switch d.Engine {
	case advisor.EngineScan:
		s.cPlanScan.Inc()
	default:
		s.cPlanTree.Inc()
	}
	return planJSON(d), nil
}

// planRejectedMsg renders the 422 body's message. Both costs are
// finite and non-negative, so the integer parts print exactly.
func planRejectedMsg(d advisor.Decision, ceiling float64) string {
	best := d.Predicted()
	return "cheapest plan (" + string(d.Engine) + ") prices at " +
		strconv.FormatInt(int64(best.Nodes+best.Dists), 10) + " node reads + distance computations, above the ceiling " +
		strconv.FormatInt(int64(ceiling), 10)
}

// refreshAdvisorGauges copies the engine's hardness profile into the
// registry so /v1/stats snapshots carry it (mirrors
// refreshRecalGauges).
func (s *Server) refreshAdvisorGauges() {
	hr, ok := s.base.(HardnessReporter)
	if !ok {
		return
	}
	var prof advisor.Profile
	if s.mut != nil {
		s.wmu.RLock()
		prof = hr.Hardness()
		s.wmu.RUnlock()
	} else {
		prof = hr.Hardness()
	}
	s.reg.Gauge("advisor.d2").Set(prof.D2)
	d2v := 0.0
	if prof.D2Valid {
		d2v = 1
	}
	s.reg.Gauge("advisor.d2_valid").Set(d2v)
	s.reg.Gauge("advisor.concentration").Set(prof.Concentration)
	s.reg.Gauge("advisor.intrinsic_dim").Set(prof.IntrinsicDim)
	s.reg.Gauge("advisor.scan_nodes").Set(prof.ScanNodes)
	s.reg.Gauge("advisor.scan_dists").Set(prof.ScanDists)
	s.reg.Gauge("advisor.crossover_radius").Set(prof.CrossoverRadius)
	s.reg.Gauge("advisor.crossover_k").Set(float64(prof.CrossoverK))
}
