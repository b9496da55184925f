package numeric

import (
	"math"
	"testing"
)

// FuzzBinomialPrefix holds BinomialPrefix to its definition: for any
// n <= 600, p in [0, 1] and K <= n, every tail Tails writes is
// BinomialTail's, bit for bit, on both sides of the lower-tail limit.
// `go test -fuzz FuzzBinomialPrefix` explores; the seed corpus alone
// runs in normal tests.
func FuzzBinomialPrefix(f *testing.F) {
	f.Add(uint16(10), uint16(10), 0.5)
	f.Add(uint16(11), uint16(6), 0.5)
	f.Add(uint16(11), uint16(7), 0.9)
	f.Add(uint16(1), uint16(1), 1e-300)
	f.Add(uint16(600), uint16(600), 0.999)
	f.Add(uint16(301), uint16(200), 0.0)
	f.Add(uint16(2), uint16(0), 1.0)
	f.Fuzz(func(t *testing.T, n16, k16 uint16, p float64) {
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Skip()
		}
		n := int(n16) % 601
		K := int(k16) % (n + 1)
		out := make([]float64, K)
		NewBinomialPrefix(n, K).Tails(p, out)
		for k := 1; k <= K; k++ {
			if want := BinomialTail(n, k, p); out[k-1] != want {
				t.Fatalf("n=%d K=%d p=%v k=%d: prefix %v, BinomialTail %v", n, K, p, k, out[k-1], want)
			}
		}
	})
}
