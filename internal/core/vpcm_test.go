package core

import (
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/vptree"
)

func TestNewVPModelValidation(t *testing.T) {
	f, _ := histogram.FromSamples([]float64{0.5}, 10, 1, false)
	if _, err := NewVPModel(nil, 10, 2, 1); err == nil {
		t.Error("nil F accepted")
	}
	if _, err := NewVPModel(f, 0, 2, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewVPModel(f, 10, 1, 1); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := NewVPModel(f, 10, 2, 0); err == nil {
		t.Error("bucket=0 accepted")
	}
}

func TestVPModelMatchesMeasuredVisits(t *testing.T) {
	// Validate the Section 5 model against the real vp-tree: predicted
	// internal visits should track measured ones across radii and
	// fan-outs. The paper sketches but does not evaluate this model, so
	// we accept a generous band and assert the *shape* (monotone growth,
	// right order of magnitude).
	d := dataset.Uniform(4000, 8, 401)
	f, err := distdist.Estimate(d, distdist.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.UniformQueries(100, 8, 402).Queries
	for _, m := range []int{2, 3, 5} {
		// VantageSamples=1 gives random vantage points, matching the
		// model's assumption of generic (not spread-optimized) vantages.
		tr, err := vptree.Build(d.Objects, vptree.Options{Space: d.Space, M: m, BucketSize: 1, Seed: 3, VantageSamples: 1})
		if err != nil {
			t.Fatal(err)
		}
		model, err := NewVPModel(f, d.N(), m, 1)
		if err != nil {
			t.Fatal(err)
		}
		var prevEst, prevAct float64
		for _, rq := range []float64{0.05, 0.1, 0.2} {
			var vs vptree.VisitStats
			for _, q := range queries {
				if _, err := tr.Range(q, rq, &vs, nil); err != nil {
					t.Fatal(err)
				}
			}
			actual := float64(vs.InternalVisits) / float64(len(queries))
			est := model.RangeCost(rq)
			// The paper sketches this model without validating it; the
			// independence and truncation approximations of Eq. 22-23
			// compound with depth, so accept the right order of magnitude
			// and insist on the shape: both series grow with the radius.
			if est.InternalVisits < actual/4 || est.InternalVisits > actual*5 {
				t.Errorf("m=%d rq=%g: predicted %.1f internal visits, measured %.1f",
					m, rq, est.InternalVisits, actual)
			}
			if est.InternalVisits < prevEst {
				t.Errorf("m=%d: predicted visits fell from %.1f to %.1f as radius grew",
					m, prevEst, est.InternalVisits)
			}
			if actual < prevAct {
				t.Errorf("m=%d: measured visits fell from %.1f to %.1f as radius grew",
					m, prevAct, actual)
			}
			prevEst, prevAct = est.InternalVisits, actual
		}
	}
}

func TestVPModelMonotoneInRadius(t *testing.T) {
	d := dataset.Uniform(2000, 6, 403)
	f, err := distdist.Estimate(d, distdist.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewVPModel(f, d.N(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := VPCost{}
	for _, rq := range []float64{0.01, 0.05, 0.1, 0.3, 0.6, 1.0} {
		c := model.RangeCost(rq)
		if c.Dists < prev.Dists || c.InternalVisits < prev.InternalVisits {
			t.Fatalf("cost not monotone at rq=%g: %+v after %+v", rq, c, prev)
		}
		prev = c
	}
	// At the full bound every object must be compared: dists ≈ n.
	full := model.RangeCost(f.Bound())
	if full.Dists < float64(d.N())*0.9 || full.Dists > float64(d.N())*1.1 {
		t.Fatalf("full-radius dists = %.0f, want ≈ %d", full.Dists, d.N())
	}
}

func TestVPModelBucketsReduceInternalVisits(t *testing.T) {
	d := dataset.Uniform(2000, 6, 404)
	f, err := distdist.Estimate(d, distdist.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := NewVPModel(f, d.N(), 2, 1)
	m16, _ := NewVPModel(f, d.N(), 2, 16)
	c1 := m1.RangeCost(0.1)
	c16 := m16.RangeCost(0.1)
	if c16.InternalVisits >= c1.InternalVisits {
		t.Fatalf("bucket=16 internal visits %.1f not below bucket=1 %.1f",
			c16.InternalVisits, c1.InternalVisits)
	}
}

func TestVPNNCostTracksMeasured(t *testing.T) {
	d := dataset.Uniform(3000, 8, 405)
	f, err := distdist.Estimate(d, distdist.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := vptree.Build(d.Objects, vptree.Options{Space: d.Space, M: 2, BucketSize: 1, Seed: 2, VantageSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewVPModel(f, d.N(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.UniformQueries(60, 8, 406).Queries
	prevPred, prevAct := 0.0, 0.0
	for _, k := range []int{1, 5, 20} {
		tr.ResetCounters()
		for _, q := range queries {
			if _, err := tr.NN(q, k, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		act := float64(tr.DistanceCount()) / float64(len(queries))
		pred := model.NNCost(k)
		// Order-of-magnitude band (the range model it integrates carries
		// its own Section 5 approximation error), monotone in k.
		if pred.Dists < act/5 || pred.Dists > act*5 {
			t.Errorf("k=%d: predicted %.1f dists, measured %.1f", k, pred.Dists, act)
		}
		if pred.Dists < prevPred || act < prevAct {
			t.Errorf("k=%d: NN cost not monotone in k", k)
		}
		prevPred, prevAct = pred.Dists, act
	}
}

func TestVPNNCostCheaperThanFullRange(t *testing.T) {
	d := dataset.Uniform(1500, 6, 407)
	f, err := distdist.Estimate(d, distdist.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewVPModel(f, d.N(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	nn := model.NNCost(1)
	full := model.RangeCost(f.Bound())
	if nn.Dists >= full.Dists {
		t.Fatalf("NN(1) predicted %.1f dists, full range %.1f", nn.Dists, full.Dists)
	}
	if nn.Dists <= 0 {
		t.Fatal("empty NN prediction")
	}
}
