package metric

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The kernel contract: bit-identical to the reference metric, on every
// input. Float comparisons below are == (not within-epsilon) on
// purpose — the arena engine's equivalence matrix demands bit-identical
// results, which only holds if every kernel reproduces the reference
// expression exactly.

func kernRandVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func TestVecKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	refs := map[string]DistanceFunc{"L1": L1, "L2": L2, "Linf": LInf}
	for name, ref := range refs {
		k := VecKernelFor(name)
		if k == nil {
			t.Fatalf("no kernel for %s", name)
		}
		for dim := 1; dim <= 33; dim++ {
			for trial := 0; trial < 20; trial++ {
				a, b := kernRandVec(rng, dim), kernRandVec(rng, dim)
				want := ref(a, b)
				got := k(a, b)
				if got != want {
					t.Fatalf("%s dim %d: kernel %v != reference %v", name, dim, got, want)
				}
			}
		}
	}
	if VecKernelFor("edit") != nil || VecKernelFor("nope") != nil {
		t.Fatal("non-Lp names must have no vector kernel")
	}
}

func kernRandBits(rng *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			sb.WriteByte('0')
		} else {
			sb.WriteByte('1')
		}
	}
	return sb.String()
}

func TestHammingRawMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 10; trial++ {
			a, b := kernRandBits(rng, n), kernRandBits(rng, n)
			if got, want := HammingRaw(a, b), Hamming(a, b); got != want {
				t.Fatalf("n=%d: HammingRaw=%v Hamming=%v (a=%q b=%q)", n, got, want, a, b)
			}
		}
	}
}

func TestHammingRawPanicsOnMismatch(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on length mismatch")
		}
		if !strings.Contains(r.(string), "Hamming length mismatch") {
			t.Fatalf("wrong panic message: %v", r)
		}
	}()
	HammingRaw("0101", "010")
}

func kernRandWord(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + rng.Intn(4))) // tiny alphabet → long shared prefixes
	}
	return sb.String()
}

func TestPrefixLevMatchesLevenshtein(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		q := kernRandWord(rng, 12)
		p := NewPrefixLev(q)
		// A sorted-ish stream maximizes shared prefixes, the path that
		// reuses rows; a shuffled stream exercises arbitrary resets.
		for i := 0; i < 50; i++ {
			s := kernRandWord(rng, 14)
			if got, want := p.Dist(s), int(Levenshtein(s, q)); got != want {
				t.Fatalf("q=%q s=%q: PrefixLev=%d Levenshtein=%d", q, s, got, want)
			}
		}
		// Reset to a different query reuses the same scratch.
		q2 := kernRandWord(rng, 9)
		p.Reset(q2)
		for i := 0; i < 20; i++ {
			s := kernRandWord(rng, 14)
			if got, want := p.Dist(s), int(Levenshtein(s, q2)); got != want {
				t.Fatalf("after Reset q=%q s=%q: PrefixLev=%d Levenshtein=%d", q2, s, got, want)
			}
		}
	}
}

func TestAccelerateBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edit := Accelerate(EditSpace(16))
	if edit.Name != "edit" || edit.Bound != 16 || !edit.Discrete {
		t.Fatal("Accelerate must preserve the space descriptor")
	}
	for i := 0; i < 200; i++ {
		a, b := kernRandWord(rng, 16), kernRandWord(rng, 16)
		if got, want := edit.Distance(a, b), Levenshtein(a, b); got != want {
			t.Fatalf("edit %q vs %q: accelerated %v != %v", a, b, got, want)
		}
	}
	ham := Accelerate(HammingSpace(24))
	for i := 0; i < 200; i++ {
		a, b := kernRandBits(rng, 24), kernRandBits(rng, 24)
		if got, want := ham.Distance(a, b), Hamming(a, b); got != want {
			t.Fatalf("hamming %q vs %q: accelerated %v != %v", a, b, got, want)
		}
	}
	// Vector spaces and custom distances pass through untouched.
	l2 := VectorSpace("L2", 4)
	if Accelerate(l2) != l2 {
		t.Fatal("L2 must pass through Accelerate unchanged")
	}
	custom := &Space{Name: "hamming", Distance: func(a, b Object) float64 { return 0 }, Bound: 1}
	if Accelerate(custom) != custom {
		t.Fatal("a custom distance under a known name must not be substituted")
	}
}

func TestAcceleratedHammingKeepsPanicContract(t *testing.T) {
	ham := Accelerate(HammingSpace(4))
	defer func() {
		if recover() == nil {
			t.Fatal("accelerated Hamming must still panic on length mismatch")
		}
	}()
	ham.Distance("0101", "01")
}

func TestValidateQuery(t *testing.T) {
	l2 := VectorSpace("L2", 3)
	sampleVec := Vector{0.1, 0.2, 0.3}
	cases := []struct {
		name   string
		space  *Space
		sample Object
		q      Object
		ok     bool
	}{
		{"vec ok", l2, sampleVec, Vector{1, 2, 3}, true},
		{"vec nil", l2, sampleVec, nil, false},
		{"vec wrong type", l2, sampleVec, "abc", false},
		{"vec wrong dim", l2, sampleVec, Vector{1, 2}, false},
		{"vec NaN", l2, sampleVec, Vector{1, math.NaN(), 3}, false},
		{"vec Inf", l2, sampleVec, Vector{1, 2, math.Inf(1)}, false},
		{"hamming ok", HammingSpace(4), "0101", "1111", true},
		{"hamming short", HammingSpace(4), "0101", "111", false},
		{"hamming long", HammingSpace(4), "0101", "11111", false},
		{"hamming wrong type", HammingSpace(4), "0101", Vector{1}, false},
		{"edit ok", EditSpace(8), "word", "words", true},
		{"edit too long", EditSpace(8), "word", "wayovermaxlength", false},
	}
	for _, tc := range cases {
		err := ValidateQuery(tc.space, tc.sample, tc.q)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(err, ErrInvalidQuery) {
				t.Errorf("%s: error %v is not ErrInvalidQuery", tc.name, err)
			}
		}
	}
}

func BenchmarkHammingSWAR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := kernRandBits(rng, 512), kernRandBits(rng, 512)
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Hamming(x, y)
		}
	})
	b.Run("swar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			HammingRaw(x, y)
		}
	})
}
