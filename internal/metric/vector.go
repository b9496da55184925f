package metric

import (
	"fmt"
	"math"
)

// Vector is a point in a D-dimensional real space. Vectors of differing
// lengths must never be mixed within one space; the Lp distance functions
// panic on length mismatch because that is always a programming error,
// not a data error.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

func vecPair(a, b Object) (Vector, Vector) {
	va, ok := a.(Vector)
	if !ok {
		panic(fmt.Sprintf("metric: expected Vector, got %T", a))
	}
	vb, ok := b.(Vector)
	if !ok {
		panic(fmt.Sprintf("metric: expected Vector, got %T", b))
	}
	if len(va) != len(vb) {
		panic(fmt.Sprintf("metric: dimension mismatch %d vs %d", len(va), len(vb)))
	}
	return va, vb
}

// L1 is the Manhattan distance.
func L1(a, b Object) float64 {
	va, vb := vecPair(a, b)
	var s float64
	for i := range va {
		s += math.Abs(va[i] - vb[i])
	}
	return s
}

// L2 is the Euclidean distance.
func L2(a, b Object) float64 {
	va, vb := vecPair(a, b)
	var s float64
	for i := range va {
		d := va[i] - vb[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// LInf is the Chebyshev (maximum) distance, the metric the paper uses for
// its uniform and clustered vector datasets.
func LInf(a, b Object) float64 {
	va, vb := vecPair(a, b)
	var m float64
	for i := range va {
		if d := math.Abs(va[i] - vb[i]); d > m {
			m = d
		}
	}
	return m
}

// Lp returns the Minkowski distance of order p (p >= 1). For p = 1, 2 the
// specialized L1/L2 functions are faster; Lp exists for parameter sweeps.
func Lp(p float64) DistanceFunc {
	if p < 1 {
		panic(fmt.Sprintf("metric: Lp with p=%g < 1 is not a metric", p))
	}
	if math.IsInf(p, 1) {
		return LInf
	}
	inv := 1 / p
	return func(a, b Object) float64 {
		va, vb := vecPair(a, b)
		var s float64
		for i := range va {
			s += math.Pow(math.Abs(va[i]-vb[i]), p)
		}
		return math.Pow(s, inv)
	}
}

// Angular is the angle (in radians) between two non-zero vectors. Unlike
// raw cosine dissimilarity it is a true metric; its bound is pi.
func Angular(a, b Object) float64 {
	va, vb := vecPair(a, b)
	var dot, na, nb float64
	for i := range va {
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na == 0 || nb == 0 {
		panic("metric: Angular distance undefined for zero vector")
	}
	c := dot / math.Sqrt(na*nb)
	// Clamp against floating-point drift outside [-1, 1].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// VectorSpace returns the BRM space ([0,1]^dim, distance) for one of the
// Lp family over the unit hypercube, with the tight d+ bound.
func VectorSpace(name string, dim int) *Space {
	switch name {
	case "L1":
		return &Space{Name: "L1", Distance: L1, Bound: float64(dim)}
	case "L2":
		return &Space{Name: "L2", Distance: L2, Bound: math.Sqrt(float64(dim))}
	case "Linf", "LInf", "L∞":
		return &Space{Name: "Linf", Distance: LInf, Bound: 1}
	default:
		panic(fmt.Sprintf("metric: unknown vector space %q", name))
	}
}
