package metric

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
)

// Distance kernels for the arena hot paths. Every kernel here is
// bit-identical to the reference metric it replaces: the Lp slab
// kernels keep the exact floating-point expression shape of L1/L2/LInf,
// and the Hamming/Levenshtein kernels are integer-exact, so traversals
// dispatching through a kernel produce the same distances — and
// therefore the same pruning decisions, traces, and results — as the
// generic Space.Distance path. kernels_test.go pins this contract on
// random data.

// VecKernel is a distance over two raw coordinate slabs of equal
// length. Callers guarantee len(a) == len(b); kernels do not re-check.
type VecKernel func(a, b []float64) float64

// VecKernelFor returns the slab kernel for a named Lp vector space, or
// nil when the space has no kernel (the caller falls back to the
// generic Distance).
func VecKernelFor(name string) VecKernel {
	switch name {
	case "L1":
		return l1Slab
	case "L2":
		return l2Slab
	case "Linf", "LInf", "L∞":
		return linfSlab
	}
	return nil
}

func l1Slab(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func l2Slab(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func linfSlab(a, b []float64) float64 {
	b = b[:len(a)]
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// HammingRaw is the bit-parallel Hamming kernel: it XORs the strings
// eight bytes at a time and counts nonzero bytes with one popcount per
// word (each byte of a bit string is one '0'/'1' position, so a nonzero
// XOR byte is exactly one differing position). Identical panic contract
// and integer-exact result as Hamming.
func HammingRaw(a, b string) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metric: Hamming length mismatch %d vs %d", len(a), len(b)))
	}
	const (
		lo7 = 0x7f7f7f7f7f7f7f7f
		hi1 = 0x8080808080808080
	)
	n := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		x := load64(a, i) ^ load64(b, i)
		if x != 0 {
			// Per-byte nonzero test: bit 7 of (x&0x7f)+0x7f is set iff the
			// low seven bits are nonzero; OR-ing x itself covers 0x80.
			t := (x | ((x & lo7) + lo7)) & hi1
			n += bits.OnesCount64(t)
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			n++
		}
	}
	return float64(n)
}

func load64(s string, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// PrefixLev computes exact Levenshtein distances from one query to a
// stream of candidate strings, reusing DP rows across candidates: when
// consecutive candidates share a prefix (arena leaves store entries in
// page order, so siblings often do), only the rows past the common
// prefix are recomputed. Integer-exact: row i equals the classic DP row
// for candidate[:i] vs the query, so the result always matches
// Levenshtein. Not safe for concurrent use.
type PrefixLev struct {
	q    string
	prev string  // previous candidate; rows up to the shared prefix stay valid
	rows [][]int // rows[i][j] = edit(candidate[:i], q[:j])
}

// NewPrefixLev returns a reusable DP over query q.
func NewPrefixLev(q string) *PrefixLev {
	p := &PrefixLev{}
	p.Reset(q)
	return p
}

// Reset rebinds the DP to a new query, invalidating all cached rows.
func (p *PrefixLev) Reset(q string) {
	p.q = q
	p.prev = ""
	if len(p.rows) == 0 {
		p.rows = append(p.rows, nil)
	}
	if cap(p.rows[0]) < len(q)+1 {
		p.rows[0] = make([]int, len(q)+1)
	}
	p.rows[0] = p.rows[0][:len(q)+1]
	for j := range p.rows[0] {
		p.rows[0][j] = j
	}
	// Rows beyond 0 hold stale contents, which is fine — prev = "" forces
	// Dist to recompute from row 1 — but their width must match the new
	// query before Dist indexes them.
	for i := 1; i < len(p.rows); i++ {
		if cap(p.rows[i]) < len(q)+1 {
			p.rows[i] = make([]int, len(q)+1)
		} else {
			p.rows[i] = p.rows[i][:len(q)+1]
		}
	}
}

// Dist returns the exact edit distance between s and the query.
func (p *PrefixLev) Dist(s string) int {
	k := 0
	for k < len(s) && k < len(p.prev) && s[k] == p.prev[k] {
		k++
	}
	for len(p.rows) <= len(s) {
		p.rows = append(p.rows, make([]int, len(p.q)+1))
	}
	for i := k + 1; i <= len(s); i++ {
		above, row := p.rows[i-1], p.rows[i]
		row[0] = i
		c := s[i-1]
		for j := 1; j <= len(p.q); j++ {
			cost := 1
			if c == p.q[j-1] {
				cost = 0
			}
			m := above[j-1] + cost
			if d := above[j] + 1; d < m {
				m = d
			}
			if ins := row[j-1] + 1; ins < m {
				m = ins
			}
			row[j] = m
		}
	}
	p.prev = s
	return p.rows[len(s)][len(p.q)]
}

// editRows is the pooled scratch for the allocation-free Levenshtein.
type editRows struct {
	prev, cur []int
}

var editRowPool = sync.Pool{New: func() any { return new(editRows) }}

// levenshteinPooled is levenshteinBytes with the two DP rows taken from
// a pool instead of allocated per call. Same algorithm, same result.
func levenshteinPooled(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	r := editRowPool.Get().(*editRows)
	if cap(r.prev) < len(b)+1 {
		r.prev = make([]int, len(b)+1)
		r.cur = make([]int, len(b)+1)
	}
	prev, cur := r.prev[:len(b)+1], r.cur[:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if d := prev[j] + 1; d < m {
				m = d
			}
			if ins := cur[j-1] + 1; ins < m {
				m = ins
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	d := prev[len(b)]
	r.prev, r.cur = prev, cur
	editRowPool.Put(r)
	return d
}

func hammingFast(a, b Object) float64 {
	sa, ok := a.(string)
	if !ok {
		panic(fmt.Sprintf("metric: expected string, got %T", a))
	}
	sb, ok := b.(string)
	if !ok {
		panic(fmt.Sprintf("metric: expected string, got %T", b))
	}
	return HammingRaw(sa, sb)
}

func editFast(a, b Object) float64 {
	sa, ok := a.(string)
	if !ok {
		panic(fmt.Sprintf("metric: expected string, got %T", a))
	}
	sb, ok := b.(string)
	if !ok {
		panic(fmt.Sprintf("metric: expected string, got %T", b))
	}
	return float64(levenshteinPooled(sa, sb))
}

// CanonicalName identifies a space's distance by function identity,
// whatever s.Name says: it returns "L1", "L2", "Linf", "edit" or
// "hamming" when s.Distance is that package metric (or its accelerated
// twin), and "" for any other function. It is the one rule by which a
// bit-identical kernel may stand in for Distance: a custom distance —
// even under a known name — is never substituted, so acceleration can
// never change behavior.
func CanonicalName(s *Space) string {
	switch fnPointer(s.Distance) {
	case fnPointer(L1):
		return "L1"
	case fnPointer(L2):
		return "L2"
	case fnPointer(LInf):
		return "Linf"
	case fnPointer(Levenshtein), fnPointer(editFast):
		return "edit"
	case fnPointer(Hamming), fnPointer(hammingFast):
		return "hamming"
	}
	return ""
}

// Accelerate returns a space identical to s (same name, bound,
// discreteness, and bit-identical distance values) whose Distance is
// the fastest known implementation: SWAR Hamming, pooled-row
// Levenshtein. Substitution follows CanonicalName, so spaces with a
// custom Distance are returned unchanged. Lp vector distances are
// already allocation-free and pass through; the traversal core's slab
// kernels cover their fast path.
func Accelerate(s *Space) *Space {
	if s == nil {
		return nil
	}
	out := *s
	switch CanonicalName(s) {
	case "hamming":
		out.Distance = hammingFast
	case "edit":
		out.Distance = editFast
	default:
		return s
	}
	return &out
}

func fnPointer(f DistanceFunc) uintptr {
	if f == nil {
		return 0
	}
	return reflect.ValueOf(f).Pointer()
}
