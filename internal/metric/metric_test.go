package metric

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func randVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func TestSpaceValidate(t *testing.T) {
	cases := []struct {
		name  string
		space Space
		ok    bool
	}{
		{"valid", Space{Name: "L2", Distance: L2, Bound: 1}, true},
		{"nil distance", Space{Name: "x", Bound: 1}, false},
		{"zero bound", Space{Name: "x", Distance: L2, Bound: 0}, false},
		{"negative bound", Space{Name: "x", Distance: L2, Bound: -3}, false},
		{"inf bound", Space{Name: "x", Distance: L2, Bound: math.Inf(1)}, false},
		{"nan bound", Space{Name: "x", Distance: L2, Bound: math.NaN()}, false},
	}
	for _, c := range cases {
		err := c.space.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCounterCounts(t *testing.T) {
	s := VectorSpace("L2", 3)
	c := NewCounter(s)
	a := Vector{0, 0, 0}
	b := Vector{1, 1, 1}
	for i := 0; i < 7; i++ {
		c.Distance(a, b)
	}
	if got := c.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	if got := c.Reset(); got != 7 {
		t.Fatalf("Reset() = %d, want 7", got)
	}
	if got := c.Count(); got != 0 {
		t.Fatalf("Count() after reset = %d, want 0", got)
	}
	if c.Bound() != s.Bound {
		t.Fatalf("Bound() = %g, want %g", c.Bound(), s.Bound)
	}
}

func TestCounterDistanceMatchesSpace(t *testing.T) {
	s := VectorSpace("Linf", 4)
	c := NewCounter(s)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a, b := randVec(rng, 4), randVec(rng, 4)
		if got, want := c.Distance(a, b), s.Distance(a, b); got != want {
			t.Fatalf("counter distance %g != space distance %g", got, want)
		}
	}
}

func TestCheckAxiomsAcceptsRealMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	spaces := []*Space{
		VectorSpace("L1", 4),
		VectorSpace("L2", 4),
		VectorSpace("Linf", 4),
		{Name: "L3", Distance: Lp(3), Bound: math.Pow(4, 1.0/3)},
	}
	sample := make([]Object, 12)
	for i := range sample {
		sample[i] = randVec(rng, 4)
	}
	for _, s := range spaces {
		if err := CheckAxioms(s, sample); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestCheckAxiomsRejectsNonMetric(t *testing.T) {
	// Squared Euclidean distance violates the triangle inequality.
	bad := &Space{
		Name: "L2sq",
		Distance: func(a, b Object) float64 {
			d := L2(a, b)
			return d * d
		},
		Bound: 4,
	}
	sample := []Object{
		Vector{0, 0},
		Vector{1, 0},
		Vector{2, 0},
	}
	err := CheckAxioms(bad, sample)
	if err == nil {
		t.Fatal("expected triangle violation for squared L2")
	}
	v, ok := err.(AxiomViolation)
	if !ok || v.Axiom != "triangle" {
		t.Fatalf("got %v, want triangle AxiomViolation", err)
	}
}

func TestCheckAxiomsRejectsAsymmetric(t *testing.T) {
	bad := &Space{
		Name: "asym",
		Distance: func(a, b Object) float64 {
			va := a.(Vector)
			vb := b.(Vector)
			return math.Abs(va[0]-vb[0]) * (1 + 0.01*va[0]) // depends on argument order
		},
		Bound: 3,
	}
	sample := []Object{Vector{0.0}, Vector{1.0}}
	err := CheckAxioms(bad, sample)
	if err == nil {
		t.Fatal("expected symmetry violation")
	}
	if v := err.(AxiomViolation); v.Axiom != "symmetry" {
		t.Fatalf("got axiom %q, want symmetry", v.Axiom)
	}
}

func TestCheckAxiomsRejectsBoundOverflow(t *testing.T) {
	s := &Space{Name: "tight", Distance: L1, Bound: 0.5}
	sample := []Object{Vector{0.0}, Vector{1.0}}
	err := CheckAxioms(s, sample)
	if err == nil {
		t.Fatal("expected bound violation")
	}
	if v := err.(AxiomViolation); v.Axiom != "bound" {
		t.Fatalf("got axiom %q, want bound", v.Axiom)
	}
}

func TestLpLimits(t *testing.T) {
	a := Vector{0.2, 0.9, 0.5}
	b := Vector{0.7, 0.1, 0.5}
	if got, want := Lp(1)(a, b), L1(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("Lp(1) = %g, want L1 = %g", got, want)
	}
	if got, want := Lp(2)(a, b), L2(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("Lp(2) = %g, want L2 = %g", got, want)
	}
	if got, want := Lp(math.Inf(1))(a, b), LInf(a, b); got != want {
		t.Errorf("Lp(inf) = %g, want LInf = %g", got, want)
	}
	// Large p approaches LInf from above.
	if got, want := Lp(64)(a, b), LInf(a, b); got < want || got > want*1.1 {
		t.Errorf("Lp(64) = %g, want within 10%% above LInf = %g", got, want)
	}
}

func TestLpPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lp(0.5) should panic")
		}
	}()
	Lp(0.5)
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("L2 on mismatched dims should panic")
		}
	}()
	L2(Vector{1, 2}, Vector{1, 2, 3})
}

func TestAngular(t *testing.T) {
	a := Vector{1, 0}
	b := Vector{0, 1}
	if got := Angular(a, b); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Fatalf("Angular(e1,e2) = %g, want pi/2", got)
	}
	if got := Angular(a, Vector{5, 0}); got > 1e-9 {
		t.Fatalf("Angular of parallel vectors = %g, want 0", got)
	}
	if got := Angular(a, Vector{-2, 0}); math.Abs(got-math.Pi) > 1e-12 {
		t.Fatalf("Angular of opposite vectors = %g, want pi", got)
	}
}

func TestAngularZeroVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Angular with zero vector should panic")
		}
	}()
	Angular(Vector{0, 0}, Vector{1, 0})
}

func TestAngularIsMetricOnSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sample := make([]Object, 10)
	for i := range sample {
		v := randVec(rng, 3)
		v[0] += 0.1 // keep away from zero vector
		sample[i] = v
	}
	s := &Space{Name: "angular", Distance: Angular, Bound: math.Pi}
	if err := CheckAxioms(s, sample); err != nil {
		t.Fatal(err)
	}
}

func TestVectorSpaceBounds(t *testing.T) {
	if s := VectorSpace("L1", 5); s.Bound != 5 {
		t.Errorf("L1 bound = %g, want 5", s.Bound)
	}
	if s := VectorSpace("L2", 4); s.Bound != 2 {
		t.Errorf("L2 bound = %g, want 2", s.Bound)
	}
	if s := VectorSpace("Linf", 50); s.Bound != 1 {
		t.Errorf("Linf bound = %g, want 1", s.Bound)
	}
}

func TestVectorSpaceUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown space should panic")
		}
	}()
	VectorSpace("cosine", 3)
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCounterConcurrent(t *testing.T) {
	s := VectorSpace("L2", 2)
	c := NewCounter(s)
	a, b := Vector{0, 0}, Vector{3, 4}
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if d := c.Distance(a, b); d != 5 {
					t.Errorf("d = %g", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Count(); got != goroutines*perG {
		t.Fatalf("Count = %d, want %d (lost increments under concurrency)", got, goroutines*perG)
	}
	if prev := c.Reset(); prev != goroutines*perG {
		t.Fatalf("Reset returned %d", prev)
	}
	if c.Count() != 0 {
		t.Fatal("Count after Reset != 0")
	}
}
