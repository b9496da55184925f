// Package numeric provides the numerical routines the cost model needs:
// log-space binomial tail probabilities (Eq. 9 of the paper must survive
// n = 10^6) and simple quadrature helpers.
package numeric

import (
	"fmt"
	"math"
)

// LogChoose returns ln C(n, k) computed via lgamma, exact enough for the
// probability sums in the cost model. It panics on invalid arguments,
// which are always programming errors here.
func LogChoose(n, k int) float64 {
	if k < 0 || n < 0 || k > n {
		panic(fmt.Sprintf("numeric: LogChoose(%d, %d) out of domain", n, k))
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln1 - lk - lnk
}

// binomialTerm returns C(n,i) p^i q^(n-i) from ln C(n,i), ln p and ln q.
// It is the one place the term is written: BinomialTail and
// BinomialPrefix.Tails add the same values in the same order, which is
// what makes their results equal bit for bit.
func binomialTerm(logChoose float64, n, i int, logP, logQ float64) float64 {
	return math.Exp(logChoose + float64(i)*logP + float64(n-i)*logQ)
}

// LowerTailMaxK returns the largest k for which BinomialTail(n, k, p)
// sums the lower tail (2k <= n+1); above it the upper tail is shorter.
func LowerTailMaxK(n int) int { return (n + 1) / 2 }

// BinomialTail returns Pr{X >= k} for X ~ Binomial(n, p), computed in log
// space term by term. This is exactly P_{Q,k}(r) of the paper (Eq. 9)
// with p = F(r): the probability that at least k of n objects fall inside
// the query ball. The lower-tail sum has at most k terms, so the function
// is fast for the small k of nearest-neighbor queries; for large k it
// sums the upper tail instead (n-k+1 terms, added from i = n down to k)
// when that is shorter.
func BinomialTail(n, k int, p float64) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	if k <= LowerTailMaxK(n) {
		// Pr{X >= k} = 1 - sum_{i=0}^{k-1} C(n,i) p^i q^(n-i)
		var lower float64
		for i := 0; i < k; i++ {
			lower += binomialTerm(LogChoose(n, i), n, i, logP, logQ)
		}
		return oneMinus(lower)
	}
	// Pr{X >= k} = sum_{i=k}^{n} C(n,i) p^i q^(n-i), from i = n down.
	var upper float64
	for i := n; i >= k; i-- {
		upper += binomialTerm(LogChoose(n, i), n, i, logP, logQ)
	}
	return min(upper, 1)
}

// oneMinus turns a lower-tail sum into the upper tail, absorbing the
// rounding that can carry the sum past 1.
func oneMinus(lower float64) float64 {
	if lower > 1 {
		lower = 1
	}
	return 1 - lower
}

// BinomialPrefix evaluates BinomialTail(n, k, p) for every k = 1..K in
// one pass. Both of BinomialTail's sums are running sums of one term
// loop: the lower-tail sum for k is the loop from i = 0 stopped after k
// terms, and the upper-tail sum for k is the loop from i = n down
// stopped after term k. So the tails for k = 1..LowerTailMaxK(n) are
// the successive sums of one upward loop, those for k = n down to
// LowerTailMaxK(n)+1 the successive sums of one downward loop, and no
// term is added twice — at most n terms for all K tails instead of
// about K²/2, with ln C(n,i) tabulated once for all p instead of three
// Lgamma per term. Each result equals BinomialTail's bit for bit.
type BinomialPrefix struct {
	n         int
	logChoose []float64 // ln C(n,i) for every i a tail up to K adds
}

// NewBinomialPrefix tabulates ln C(n,i) for the terms the tails for
// k = 1..K add: i < K when K is at most LowerTailMaxK(n), every i <= n
// past it. It panics when K is outside [0, n], a programming error.
func NewBinomialPrefix(n, K int) *BinomialPrefix {
	if K < 0 || K > n {
		panic(fmt.Sprintf("numeric: NewBinomialPrefix(%d, %d) out of domain", n, K))
	}
	terms := K
	if K > LowerTailMaxK(n) {
		terms = n + 1
	}
	b := &BinomialPrefix{n: n, logChoose: make([]float64, terms)}
	for i := range b.logChoose {
		b.logChoose[i] = LogChoose(n, i)
	}
	return b
}

// Tails sets out[k-1] = BinomialTail(n, k, p) for k = 1..len(out);
// len(out) must not exceed the K given to NewBinomialPrefix. The
// downward loop, which starts at i = n whatever len(out) is, runs only
// when len(out) passes LowerTailMaxK(n).
func (b *BinomialPrefix) Tails(p float64, out []float64) {
	switch {
	case p <= 0:
		clear(out)
		return
	case p >= 1:
		for i := range out {
			out[i] = 1
		}
		return
	}
	logP := math.Log(p)
	logQ := math.Log1p(-p)
	lowerK := LowerTailMaxK(b.n)
	var lower float64
	for i := range out[:min(len(out), lowerK)] {
		lower += binomialTerm(b.logChoose[i], b.n, i, logP, logQ)
		out[i] = oneMinus(lower)
	}
	if len(out) <= lowerK {
		return
	}
	var upper float64
	for i := b.n; i > lowerK; i-- {
		upper += binomialTerm(b.logChoose[i], b.n, i, logP, logQ)
		if i <= len(out) {
			out[i-1] = min(upper, 1)
		}
	}
}

// Trapezoid integrates f over [a, b] with the given number of equal steps
// using the composite trapezoid rule.
func Trapezoid(f func(float64) float64, a, b float64, steps int) float64 {
	if steps <= 0 {
		panic(fmt.Sprintf("numeric: Trapezoid steps = %d", steps))
	}
	if a == b {
		return 0
	}
	h := (b - a) / float64(steps)
	sum := (f(a) + f(b)) / 2
	for i := 1; i < steps; i++ {
		sum += f(a + float64(i)*h)
	}
	return sum * h
}

// Stieltjes integrates g with respect to the increasing weight function W
// over [a, b]: it returns sum over the grid of g(midpoint) * (W(next) -
// W(cur)). The cost model uses it for integrals of the form
// ∫ g(r) p(r) dr where p = dP/dr would be numerically fragile to evaluate
// directly; using increments of P is exact for the histogram CDFs.
func Stieltjes(g, w func(float64) float64, a, b float64, steps int) float64 {
	if steps <= 0 {
		panic(fmt.Sprintf("numeric: Stieltjes steps = %d", steps))
	}
	if a == b {
		return 0
	}
	h := (b - a) / float64(steps)
	var sum float64
	wPrev := w(a)
	for i := 0; i < steps; i++ {
		x0 := a + float64(i)*h
		x1 := x0 + h
		wNext := w(x1)
		sum += g(x0+h/2) * (wNext - wPrev)
		wPrev = wNext
	}
	return sum
}

// Bisect finds x in [lo, hi] with f(x) ~ target for a nondecreasing f,
// to within xtol. It returns the smallest x found with f(x) >= target;
// if f(hi) < target it returns hi.
func Bisect(f func(float64) float64, target, lo, hi, xtol float64) float64 {
	if f(hi) < target {
		return hi
	}
	if f(lo) >= target {
		return lo
	}
	for hi-lo > xtol {
		mid := (lo + hi) / 2
		if f(mid) >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
