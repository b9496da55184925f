package histogram

import (
	"math"
	"math/rand"
	"testing"
)

// randomHistogram builds a histogram from random samples with a random
// shape, occasionally forcing empty bins and point masses so the
// properties are exercised on degenerate shapes too.
func randomHistogram(rng *rand.Rand) *Histogram {
	discrete := rng.Intn(2) == 1
	var bins int
	var bound float64
	if discrete {
		bins = 1 + rng.Intn(40)
		bound = float64(bins) // one bin per integer distance, as the paper does
	} else {
		bins = 1 + rng.Intn(120)
		bound = 0.25 + 4*rng.Float64()
	}
	n := 1 + rng.Intn(2000)
	samples := make([]float64, n)
	switch rng.Intn(3) {
	case 0: // uniform over the full range
		for i := range samples {
			samples[i] = rng.Float64() * bound
		}
	case 1: // clustered in a narrow band: most bins stay empty
		center := rng.Float64() * bound
		spread := bound / 20
		for i := range samples {
			samples[i] = math.Min(math.Max(center+spread*(rng.Float64()-0.5), 0), bound)
		}
	default: // point mass
		v := rng.Float64() * bound
		for i := range samples {
			samples[i] = v
		}
	}
	if discrete {
		for i := range samples {
			samples[i] = math.Round(samples[i])
		}
	}
	h, err := FromSamples(samples, bins, bound, discrete)
	if err != nil {
		panic(err)
	}
	return h
}

// TestCDFProperties checks that every generated histogram's CDF behaves
// like a distribution function: 0 below the support and at NaN, 1 at
// the bound, and monotonically non-decreasing throughout.
func TestCDFProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		h := randomHistogram(rng)
		if got := h.CDF(-0.5); got != 0 {
			t.Fatalf("trial %d: CDF(-0.5) = %g, want 0", trial, got)
		}
		if got := h.CDF(math.NaN()); got != 0 {
			t.Fatalf("trial %d: CDF(NaN) = %g, want 0", trial, got)
		}
		if got := h.CDF(h.Bound()); got != 1 {
			t.Fatalf("trial %d: CDF(bound) = %g, want 1", trial, got)
		}
		if got := h.CDF(h.Bound() * 2); got != 1 {
			t.Fatalf("trial %d: CDF(2*bound) = %g, want 1", trial, got)
		}
		prev := 0.0
		for i := 0; i <= 400; i++ {
			x := h.Bound() * float64(i) / 400
			v := h.CDF(x)
			if v < prev {
				t.Fatalf("trial %d: CDF not monotone: F(%g)=%g < F(prev)=%g", trial, x, v, prev)
			}
			if v < 0 || v > 1 {
				t.Fatalf("trial %d: CDF(%g)=%g outside [0,1]", trial, x, v)
			}
			prev = v
		}
	}
}

// TestQuantileRoundTrip checks the Galois connection between F and
// F^-1: Quantile(p) is the smallest x with F(x) >= p, so
// F(Quantile(p)) >= p must hold for every p, with near-equality for
// continuous histograms whose CDF is strictly increasing. Quantile must
// also be monotone in p.
func TestQuantileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		h := randomHistogram(rng)
		prevQ := 0.0
		for i := 1; i <= 100; i++ {
			p := float64(i) / 100
			q := h.Quantile(p)
			if q < prevQ {
				t.Fatalf("trial %d: Quantile not monotone: F^-1(%g)=%g < %g", trial, p, q, prevQ)
			}
			prevQ = q
			if q < 0 || q > h.Bound() {
				t.Fatalf("trial %d: Quantile(%g)=%g outside [0,%g]", trial, p, q, h.Bound())
			}
			if f := h.CDF(q); f < p-1e-9 {
				t.Fatalf("trial %d: F(F^-1(%g)) = %g < p (q=%g, discrete=%v)",
					trial, p, f, q, h.Discrete())
			}
		}
	}
}

// TestQuantileRoundTripTight checks the stronger property on a
// continuous histogram with every bin populated: there the CDF is
// strictly increasing and piecewise linear, so F(F^-1(q)) == q up to
// floating-point error.
func TestQuantileRoundTripTight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const bins = 50
	samples := make([]float64, 0, bins*20)
	for b := 0; b < bins; b++ {
		for j := 0; j < 1+rng.Intn(30); j++ {
			samples = append(samples, (float64(b)+0.5)/bins)
		}
	}
	h, err := FromSamples(samples, bins, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 1000; i++ {
		p := float64(i) / 1000
		if f := h.CDF(h.Quantile(p)); math.Abs(f-p) > 1e-12 {
			t.Fatalf("F(F^-1(%g)) = %g, |diff| = %g", p, f, math.Abs(f-p))
		}
	}
}

// TestPDFIntegratesToOneProperty integrates the piecewise-constant
// density with a per-bin trapezoid rule (sampling the density at an
// interior point of each bin, exact for a function constant within
// bins) and requires total mass 1 on every randomly generated shape —
// strengthening the single-case TestPDFIntegratesToOne.
func TestPDFIntegratesToOneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		h := randomHistogram(rng)
		width := h.Bound() / float64(h.Bins())
		var mass float64
		for i := 0; i < h.Bins(); i++ {
			mid := (float64(i) + 0.5) * width
			mass += h.PDF(mid) * width
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("trial %d: density integrates to %g, want 1 (bins=%d, bound=%g, discrete=%v)",
				trial, mass, h.Bins(), h.Bound(), h.Discrete())
		}
		if h.PDF(-0.1) != 0 || h.PDF(h.Bound()) != 0 || h.PDF(h.Bound()+1) != 0 || h.PDF(math.NaN()) != 0 {
			t.Fatalf("trial %d: PDF nonzero outside support", trial)
		}
	}
}

// TestCDFPDFConsistency verifies the fundamental theorem on bin edges:
// for continuous histograms, F(edge_{i+1}) - F(edge_i) equals the bin's
// density times its width.
func TestCDFPDFConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		h := randomHistogram(rng)
		if h.Discrete() {
			continue
		}
		width := h.Bound() / float64(h.Bins())
		for i := 0; i < h.Bins(); i++ {
			lo := float64(i) * width
			hi := h.Edge(i)
			dF := h.CDF(hi) - h.CDF(lo)
			area := h.PDF(lo+width/2) * width
			if math.Abs(dF-area) > 1e-9 {
				t.Fatalf("trial %d bin %d: dF=%g but pdf*width=%g", trial, i, dF, area)
			}
		}
	}
}

// TestQuantileMinimality pins the generalized-inverse definition
// F⁻¹(p) = inf{x : F(x) ≥ p} on random shapes: F(Q(p)) ≥ p always, and
// any x strictly below Q(p) (by more than float noise) has F(x) < p —
// i.e. Q(p) really is the smallest such point, so flat CDF segments
// resolve to their left end.
func TestQuantileMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		h := randomHistogram(rng)
		eps := h.Bound() * 1e-7
		for i := 1; i < 100; i++ {
			p := float64(i) / 100
			q := h.Quantile(p)
			if f := h.CDF(q); f < p-1e-9 {
				t.Fatalf("trial %d: F(Q(%g)) = %g < p", trial, p, f)
			}
			if q > eps {
				below := h.CDF(q - eps)
				// For discrete histograms F is a step function: just left
				// of a jump F sits strictly below p unless p falls on a
				// flat run, which Quantile resolves to the jump point, so
				// the strict inequality must still hold.
				if below >= p+1e-9 {
					t.Fatalf("trial %d: Q(%g)=%g not minimal: F(q-eps)=%g >= p (discrete=%v)",
						trial, p, q, below, h.Discrete())
				}
			}
		}
	}
}

// TestQuantileZeroIsSupportEdge pins the p ≤ 0 convention on random
// shapes: Quantile(0) is the bottom of the support — the largest x with
// F(x) = 0 for continuous histograms (left edge of the first nonempty
// bin), the first mass-carrying distance for discrete ones. The pre-fix
// code returned 0 unconditionally, which lies below the support
// whenever leading bins are empty (e.g. every clustered shape).
func TestQuantileZeroIsSupportEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := randomHistogram(rng)
		q0 := h.Quantile(0)
		if qn := h.Quantile(-rng.Float64()); qn != q0 {
			t.Fatalf("trial %d: Quantile(p<0)=%g != Quantile(0)=%g", trial, qn, q0)
		}
		width := h.Bound() / float64(h.Bins())
		if h.Discrete() {
			// q0 is a jump point with positive mass and nothing below it.
			if h.CDF(q0) <= 0 {
				t.Fatalf("trial %d: discrete Quantile(0)=%g carries no mass", trial, q0)
			}
			if q0 >= width && h.CDF(q0-width) != 0 {
				t.Fatalf("trial %d: discrete Quantile(0)=%g has mass below it", trial, q0)
			}
			continue
		}
		// Continuous: F(q0) = 0 (up to interpolation noise at the bin
		// edge) and F is positive just past q0 — the CDF starts rising
		// inside the first nonempty bin.
		if f := h.CDF(q0); f > 1e-9 {
			t.Fatalf("trial %d: F(Quantile(0)=%g) = %g, want 0", trial, q0, f)
		}
		if f := h.CDF(q0 + width); f <= 0 {
			t.Fatalf("trial %d: no mass just past Quantile(0)=%g", trial, q0)
		}
		// Monotone continuation: Quantile(p) for small p > 0 never falls
		// below the support edge.
		if q := h.Quantile(1e-12); q < q0-1e-12 {
			t.Fatalf("trial %d: Quantile(1e-12)=%g < Quantile(0)=%g", trial, q, q0)
		}
	}
}

// TestQuantileFlatSegments builds a CDF with an exactly flat interior
// run (empty bins between two point masses) and checks that quantiles
// at the flat level resolve to the left end of the run, and that
// quantiles just above it land past the gap.
func TestQuantileFlatSegments(t *testing.T) {
	// 10 bins over [0,1]; mass 0.5 in bin 1 (0.15) and 0.5 in bin 7
	// (0.75): F is 0 on bin 0, rises to 0.5 across bin 1, flat at 0.5
	// over bins 2..6, rises to 1 across bin 7, flat at 1 after.
	samples := []float64{0.15, 0.75}
	h := mustFromSamples(t, samples, 10, 1, false)
	// p = 0.5 sits on the flat run; the infimum of {x : F(x) >= 0.5} is
	// the top of bin 1 where F first reaches 0.5.
	if got := h.Quantile(0.5); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Quantile(0.5) = %g, want 0.2 (left end of flat run)", got)
	}
	// Just above the flat level the quantile jumps past the gap into
	// bin 7.
	if got := h.Quantile(0.5 + 1e-9); got < 0.7 {
		t.Errorf("Quantile(0.5+eps) = %g, want >= 0.7 (past the flat run)", got)
	}
	// p = 0 resolves to the left edge of bin 1, the support's bottom.
	if got := h.Quantile(0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Quantile(0) = %g, want 0.1", got)
	}
}

// TestQuantileDiscreteSteps pins the step-CDF inversion on a known
// discrete shape: quantiles land exactly on the integer distances where
// F jumps, and every p within one step maps to the same distance.
func TestQuantileDiscreteSteps(t *testing.T) {
	// Distances 2 (x4) and 5 (x6) over 5 unit bins: F(2)=0.4, F(5)=1,
	// F flat elsewhere.
	samples := []float64{2, 2, 2, 2, 5, 5, 5, 5, 5, 5}
	h := mustFromSamples(t, samples, 5, 5, true)
	for _, tc := range []struct{ p, want float64 }{
		{0, 2},    // support bottom: first distance with mass
		{0.1, 2},  // inside the first step
		{0.4, 2},  // exactly at the step level
		{0.41, 5}, // just above: next jump
		{0.9, 5},
		{1, 5}, // p=1 pins to bound, which coincides with the top jump
	} {
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("discrete Quantile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
}
