package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogChooseSmallValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 0, 1}, {5, 5, 1}, {5, 1, 5}, {5, 2, 10}, {10, 3, 120}, {20, 10, 184756},
	}
	for _, c := range cases {
		got := math.Exp(LogChoose(c.n, c.k))
		if math.Abs(got-c.want)/c.want > 1e-9 {
			t.Errorf("C(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestLogChoosePanics(t *testing.T) {
	for _, bad := range [][2]int{{-1, 0}, {3, -1}, {3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogChoose(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			LogChoose(bad[0], bad[1])
		}()
	}
}

func TestLogChooseLargeNoOverflow(t *testing.T) {
	v := LogChoose(1_000_000, 500_000)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("LogChoose(1e6, 5e5) = %v", v)
	}
	// ln C(n, n/2) ~ n ln 2 - 0.5 ln(pi n / 2)
	approx := 1e6*math.Ln2 - 0.5*math.Log(math.Pi*5e5)
	if math.Abs(v-approx) > 1 {
		t.Fatalf("LogChoose(1e6,5e5) = %g, want ~%g", v, approx)
	}
}

// exact binomial tail by direct summation with big-ish floats (small n).
func naiveTail(n, k int, p float64) float64 {
	var s float64
	for i := k; i <= n; i++ {
		s += math.Exp(LogChoose(n, i)) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(n-i))
	}
	return s
}

func TestBinomialTailMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		k := rng.Intn(n + 2)
		p := rng.Float64()
		got := BinomialTail(n, k, p)
		want := naiveTail(n, k, p)
		if k > n {
			want = 0
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("BinomialTail(%d,%d,%g) = %g, want %g", n, k, p, got, want)
		}
	}
}

func TestBinomialTailEdgeCases(t *testing.T) {
	if got := BinomialTail(10, 0, 0.5); got != 1 {
		t.Errorf("k=0: %g", got)
	}
	if got := BinomialTail(10, -2, 0.5); got != 1 {
		t.Errorf("k<0: %g", got)
	}
	if got := BinomialTail(10, 11, 0.5); got != 0 {
		t.Errorf("k>n: %g", got)
	}
	if got := BinomialTail(10, 3, 0); got != 0 {
		t.Errorf("p=0: %g", got)
	}
	if got := BinomialTail(10, 3, 1); got != 1 {
		t.Errorf("p=1: %g", got)
	}
}

func TestBinomialTailLargeN(t *testing.T) {
	// With n=1e6 and p = k/n the tail at k ~ n p is about 1/2.
	got := BinomialTail(1_000_000, 1000, 0.001)
	if got < 0.4 || got > 0.6 {
		t.Fatalf("tail at the mean = %g, want ~0.5", got)
	}
	// Far above the mean: essentially 0.
	if got := BinomialTail(1_000_000, 5000, 0.001); got > 1e-6 {
		t.Fatalf("far tail = %g, want ~0", got)
	}
	// Far below: essentially 1.
	if got := BinomialTail(1_000_000, 10, 0.001); got < 1-1e-9 {
		t.Fatalf("low tail = %g, want ~1", got)
	}
}

func TestBinomialTailMonotoneQuick(t *testing.T) {
	// Tail is nondecreasing in p and nonincreasing in k.
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 + r.Intn(100)
		k := r.Intn(n + 1)
		p1, p2 := r.Float64(), r.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		if BinomialTail(n, k, p1) > BinomialTail(n, k, p2)+1e-12 {
			return false
		}
		return BinomialTail(n, k, p1) >= BinomialTail(n, k+1, p1)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialPrefixEqualsBinomialTail(t *testing.T) {
	// Bit for bit, at every k <= n — both tails — where the sum is empty
	// (p = 0), one rounding from empty, around its mode (p = k/n), one
	// rounding from saturated, and saturated (p = 1).
	for _, n := range []int{1, 2, 7, 100, 2001} {
		b := NewBinomialPrefix(n, n)
		ps := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1e-9, 1 - 1e-9, math.Nextafter(1, 0), 1}
		for _, k := range []int{1, 2, n / 4, LowerTailMaxK(n), LowerTailMaxK(n) + 1, 3 * n / 4, n} {
			ps = append(ps, float64(k)/float64(n))
		}
		out := make([]float64, n)
		for _, p := range ps {
			b.Tails(p, out)
			for k := 1; k <= n; k++ {
				if want := BinomialTail(n, k, p); out[k-1] != want {
					t.Fatalf("n=%d p=%g k=%d: prefix %v, BinomialTail %v", n, p, k, out[k-1], want)
				}
			}
		}
		// A shorter out is the same prefix, cut, on either side of the
		// lower-tail limit, and so is one from a smaller table.
		b.Tails(0.25, out)
		for _, K := range []int{LowerTailMaxK(n) / 2, LowerTailMaxK(n), min(LowerTailMaxK(n)+1, n)} {
			short, own := make([]float64, K), make([]float64, K)
			b.Tails(0.25, short)
			NewBinomialPrefix(n, K).Tails(0.25, own)
			for i := range short {
				if short[i] != out[i] || own[i] != out[i] {
					t.Fatalf("n=%d K=%d: short prefix differs at k=%d", n, K, i+1)
				}
			}
		}
	}
	if got := LowerTailMaxK(10); got != 5 {
		t.Errorf("LowerTailMaxK(10) = %d", got)
	}
	if got := LowerTailMaxK(11); got != 6 {
		t.Errorf("LowerTailMaxK(11) = %d", got)
	}
}

func TestNewBinomialPrefixPanicsPastN(t *testing.T) {
	for _, bad := range [][2]int{{10, 11}, {10, -1}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBinomialPrefix(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			NewBinomialPrefix(bad[0], bad[1])
		}()
	}
}

func TestTrapezoid(t *testing.T) {
	// ∫0..1 x^2 dx = 1/3
	got := Trapezoid(func(x float64) float64 { return x * x }, 0, 1, 1000)
	if math.Abs(got-1.0/3) > 1e-6 {
		t.Errorf("x^2: %g", got)
	}
	// ∫0..pi sin = 2
	got = Trapezoid(math.Sin, 0, math.Pi, 1000)
	if math.Abs(got-2) > 1e-5 {
		t.Errorf("sin: %g", got)
	}
	if got := Trapezoid(math.Sin, 1, 1, 10); got != 0 {
		t.Errorf("empty interval: %g", got)
	}
}

func TestTrapezoidPanicsOnBadSteps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("steps=0 should panic")
		}
	}()
	Trapezoid(math.Sin, 0, 1, 0)
}

func TestStieltjesAgainstTrapezoid(t *testing.T) {
	// With W(x) = x the Stieltjes sum is a midpoint rule for ∫ g dx.
	g := func(x float64) float64 { return math.Exp(-x) }
	id := func(x float64) float64 { return x }
	got := Stieltjes(g, id, 0, 2, 2000)
	want := 1 - math.Exp(-2)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("Stieltjes = %g, want %g", got, want)
	}
}

func TestStieltjesWithStepWeight(t *testing.T) {
	// W jumps from 0 to 1 at x=0.5: integral is g(nearest midpoint).
	w := func(x float64) float64 {
		if x >= 0.5 {
			return 1
		}
		return 0
	}
	g := func(x float64) float64 { return x }
	got := Stieltjes(g, w, 0, 1, 1000)
	if math.Abs(got-0.5) > 1e-3 {
		t.Fatalf("step-weight Stieltjes = %g, want 0.5", got)
	}
}

func TestStieltjesTotalMassIsWSpan(t *testing.T) {
	// g = 1 integrates to W(b) - W(a) regardless of W's shape.
	w := func(x float64) float64 { return x * x }
	got := Stieltjes(func(float64) float64 { return 1 }, w, 0, 3, 377)
	if math.Abs(got-9) > 1e-9 {
		t.Fatalf("mass = %g, want 9", got)
	}
}

func TestBisect(t *testing.T) {
	f := func(x float64) float64 { return x * x }
	got := Bisect(f, 2, 0, 2, 1e-9)
	if math.Abs(got-math.Sqrt2) > 1e-6 {
		t.Fatalf("Bisect = %g, want sqrt(2)", got)
	}
	if got := Bisect(f, 100, 0, 2, 1e-9); got != 2 {
		t.Fatalf("unreachable target: %g, want hi", got)
	}
	if got := Bisect(f, -1, 0, 2, 1e-9); got != 0 {
		t.Fatalf("already-satisfied target: %g, want lo", got)
	}
}
