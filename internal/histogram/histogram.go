// Package histogram implements the equi-width histogram representation of
// distance distributions used throughout the cost model. The paper
// approximates the distance distribution F by an equi-width histogram
// with 100 bins for continuous metrics and 25 bins (one per integer
// distance) for the edit metric; this package generalizes both.
//
// A Histogram stores cumulative counts at bin edges; the CDF F(x) is the
// piecewise-linear interpolation between edges (a step function can be
// requested for discrete metrics), the density f(x) is piecewise
// constant, and the quantile function F^-1 inverts the interpolation.
package histogram

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Histogram is an equi-width cumulative histogram over [0, Bound]. The
// zero value is not usable; construct with New or FromSamples.
type Histogram struct {
	bound    float64   // d+: upper edge of the last bin
	width    float64   // bin width = bound / bins
	cum      []float64 // cum[i] = fraction of samples <= edge i+1; len = bins
	total    int64     // number of samples accumulated
	discrete bool      // integer-valued metric: CDF is a right-continuous step function
}

// New returns an empty histogram with the given number of bins over
// [0, bound]. For discrete metrics pass discrete=true and bins equal to
// bound (one bin per integer distance), as the paper does for the edit
// metric.
func New(bins int, bound float64, discrete bool) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("histogram: bins = %d, need > 0", bins)
	}
	if !(bound > 0) || math.IsInf(bound, 0) || math.IsNaN(bound) {
		return nil, fmt.Errorf("histogram: invalid bound %v", bound)
	}
	return &Histogram{
		bound:    bound,
		width:    bound / float64(bins),
		cum:      make([]float64, bins),
		discrete: discrete,
	}, nil
}

// FromSamples builds a histogram from observed distance values. Values
// outside [0, bound] are clamped: the metric-space contract guarantees
// they can only stray by floating-point noise.
func FromSamples(samples []float64, bins int, bound float64, discrete bool) (*Histogram, error) {
	h, err := New(bins, bound, discrete)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("histogram: no samples")
	}
	counts := make([]int64, bins)
	for _, v := range samples {
		counts[h.binOf(v)]++
	}
	h.setCounts(counts, int64(len(samples)))
	return h, nil
}

// FromWeightedCounts builds a histogram from non-negative per-bin
// weights, normalizing them into cumulative fractions. It exists for
// the online recalibrator, which blends a decaying build-time count
// vector with live sampled counts: the blend is fractional, so the
// integer-count constructors cannot express it. N() reports the
// rounded total weight; such a histogram is not meant to round-trip
// through Merge, whose integer-recovery arithmetic assumes counts.
func FromWeightedCounts(weights []float64, bound float64, discrete bool) (*Histogram, error) {
	h, err := New(len(weights), bound, discrete)
	if err != nil {
		return nil, err
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("histogram: invalid weight %v at bin %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, errors.New("histogram: no weight")
	}
	run := 0.0
	for i, w := range weights {
		run += w
		h.cum[i] = run / sum
	}
	h.cum[len(h.cum)-1] = 1
	h.total = int64(math.Round(sum))
	if h.total < 1 {
		h.total = 1
	}
	return h, nil
}

// Accumulator incrementally counts samples and produces a Histogram.
// It exists so distance sampling loops do not need to materialize every
// sample; memory is O(bins) regardless of sample count.
type Accumulator struct {
	h      *Histogram
	counts []int64
	n      int64
}

// NewAccumulator returns an empty accumulator with the given shape.
func NewAccumulator(bins int, bound float64, discrete bool) (*Accumulator, error) {
	h, err := New(bins, bound, discrete)
	if err != nil {
		return nil, err
	}
	return &Accumulator{h: h, counts: make([]int64, bins)}, nil
}

// Add records one sample.
func (a *Accumulator) Add(v float64) {
	a.counts[a.h.binOf(v)]++
	a.n++
}

// N returns the number of samples added so far.
func (a *Accumulator) N() int64 { return a.n }

// Merge adds every count of other into a, as if other's samples had been
// Added to a directly. The two accumulators must share the same shape
// (bins, bound, discreteness). Because counts are integers, merging a set
// of accumulators yields the same result in any order — the property
// that lets parallel estimation shard one accumulator per worker and
// still produce bit-identical histograms at any worker count.
func (a *Accumulator) Merge(other *Accumulator) error {
	if err := sameShape(a.h, other.h); err != nil {
		return err
	}
	for i, c := range other.counts {
		a.counts[i] += c
	}
	a.n += other.n
	return nil
}

func sameShape(a, b *Histogram) error {
	if len(a.cum) != len(b.cum) || a.bound != b.bound || a.discrete != b.discrete {
		return fmt.Errorf("histogram: shape mismatch: %d bins over [0,%g] discrete=%v vs %d bins over [0,%g] discrete=%v",
			len(a.cum), a.bound, a.discrete, len(b.cum), b.bound, b.discrete)
	}
	return nil
}

// Merge combines finalized histograms of identical shape into one, as if
// all their samples had been accumulated together. Each histogram's
// integer bin counts are recovered from its cumulative fractions and
// sample count, summed, and re-normalized. One histogram merges to
// itself.
func Merge(hs ...*Histogram) (*Histogram, error) {
	switch len(hs) {
	case 0:
		return nil, errors.New("histogram: nothing to merge")
	case 1:
		return hs[0], nil
	}
	first := hs[0]
	counts := make([]int64, len(first.cum))
	var total int64
	for _, h := range hs {
		if err := sameShape(first, h); err != nil {
			return nil, err
		}
		var prev int64
		for i := range h.cum {
			// cum[i] was computed as float64(run)/float64(total); rounding
			// run back from the product recovers the exact integer because
			// the relative error of one division is far below 1/2 ULP of
			// any representable count.
			run := int64(math.Round(h.cum[i] * float64(h.total)))
			counts[i] += run - prev
			prev = run
		}
		total += h.total
	}
	if total == 0 {
		return nil, errors.New("histogram: merging empty histograms")
	}
	out, err := New(len(first.cum), first.bound, first.discrete)
	if err != nil {
		return nil, err
	}
	out.setCounts(counts, total)
	return out, nil
}

// Histogram finalizes and returns the histogram. The accumulator may keep
// receiving samples; each call snapshots the current state.
func (a *Accumulator) Histogram() (*Histogram, error) {
	if a.n == 0 {
		return nil, errors.New("histogram: no samples accumulated")
	}
	h, err := New(len(a.counts), a.h.bound, a.h.discrete)
	if err != nil {
		return nil, err
	}
	h.setCounts(a.counts, a.n)
	return h, nil
}

func (h *Histogram) binOf(v float64) int {
	if v <= 0 {
		return 0
	}
	i := int(v / h.width)
	if h.discrete {
		// Integer distance k belongs to bin k-1 (bin i covers (i, i+1]);
		// distance 0 contributes to bin 0, which also holds F(edge 1).
		i = int(math.Ceil(v/h.width)) - 1
		if i < 0 {
			i = 0
		}
	} else if float64(i)*h.width == v && i > 0 {
		i-- // right-closed bins: edge values fall in the lower bin
	}
	if i >= len(h.cum) {
		i = len(h.cum) - 1
	}
	return i
}

func (h *Histogram) setCounts(counts []int64, total int64) {
	var run int64
	for i, c := range counts {
		run += c
		h.cum[i] = float64(run) / float64(total)
	}
	h.total = total
	// Guard against accumulated floating error at the top edge.
	h.cum[len(h.cum)-1] = 1
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.cum) }

// Bound returns the distance bound d+ (upper edge of the last bin).
func (h *Histogram) Bound() float64 { return h.bound }

// N returns the number of samples the histogram was built from.
func (h *Histogram) N() int64 { return h.total }

// Discrete reports whether the histogram treats the metric as
// integer-valued.
func (h *Histogram) Discrete() bool { return h.discrete }

// CDF evaluates F(x), the fraction of distances <= x. For continuous
// histograms the value interpolates linearly between bin edges; for
// discrete ones it is the step function jumping at integer distances.
// CDF(x) = 0 for x < 0 or NaN and 1 for x >= Bound. Note F(0) for discrete
// histograms equals the mass at distance zero only if the first bin
// separates it; with one bin per integer, F(0) is approximated by 0
// (distance-0 mass merges into bin 1), matching the paper's 25-bin
// treatment where F(1) is the first stored value.
func (h *Histogram) CDF(x float64) float64 {
	if !(x >= 0) { // below the support, or NaN
		return 0
	}
	if x >= h.bound {
		return 1
	}
	if h.discrete {
		// Right-continuous step function: value jumps at each edge.
		k := int(math.Floor(x / h.width)) // number of whole bins fully covered
		if k <= 0 {
			return 0
		}
		return h.cum[k-1]
	}
	pos := x / h.width
	i := int(pos)
	if i >= len(h.cum) {
		return 1
	}
	frac := pos - float64(i)
	lo := 0.0
	if i > 0 {
		lo = h.cum[i-1]
	}
	return lo + frac*(h.cum[i]-lo)
}

// PDF evaluates the density f(x): piecewise constant within each bin.
// For discrete histograms it returns the probability mass spread over the
// unit bin (mass / width), which integrates correctly.
func (h *Histogram) PDF(x float64) float64 {
	if !(x >= 0) || x >= h.bound { // outside the support, or NaN
		return 0
	}
	i := int(x / h.width)
	if i >= len(h.cum) {
		i = len(h.cum) - 1
	}
	lo := 0.0
	if i > 0 {
		lo = h.cum[i-1]
	}
	return (h.cum[i] - lo) / h.width
}

// Quantile evaluates the generalized inverse F⁻¹(p) = inf{x : F(x) ≥ p}
// for p in [0,1]. The vp-tree cost model uses it to estimate cutoff
// values (Section 5 of the paper). Edge conventions, pinned by the
// property tests:
//
//   - p ≥ 1 returns bound, the top of the support.
//   - p ≤ 0 returns the bottom of the support, lim_{p→0⁺} F⁻¹(p): the
//     left edge of the first nonempty bin (continuous) or the first
//     distance carrying mass (discrete) — not 0, which would sit below
//     the support whenever leading bins are empty. An all-empty
//     histogram returns 0.
//   - Flat CDF segments resolve to their left end: the infimum over
//     {x : F(x) ≥ p} when many x reach p.
//
// Minimality invariant: CDF(Quantile(p)) ≥ p, and no smaller x (within
// the support) satisfies it.
func (h *Histogram) Quantile(p float64) float64 {
	if p >= 1 {
		return h.bound
	}
	if p <= 0 {
		i0 := h.firstNonempty()
		if i0 < 0 {
			return 0
		}
		if h.discrete {
			return float64(i0+1) * h.width // first distance with positive mass
		}
		return float64(i0) * h.width // left edge of the first nonempty bin
	}
	i := sort.SearchFloat64s(h.cum, p)
	if i >= len(h.cum) {
		return h.bound
	}
	if h.discrete {
		return float64(i+1) * h.width // the integer distance at which F jumps past p
	}
	hi := h.cum[i]
	lo := 0.0
	if i > 0 {
		lo = h.cum[i-1]
	}
	if hi == lo {
		// A flat segment exactly at p: take its left end (the infimum).
		return float64(i) * h.width
	}
	frac := (p - lo) / (hi - lo)
	return (float64(i) + frac) * h.width
}

// firstNonempty returns the index of the first bin with positive mass,
// or -1 for an empty histogram.
func (h *Histogram) firstNonempty() int {
	prev := 0.0
	for i, c := range h.cum {
		if c > prev {
			return i
		}
		prev = c
	}
	return -1
}

// Mean returns the mean distance implied by the histogram, integrating
// d+ - integral of F via the survival function: E[X] = ∫ (1-F(x)) dx.
func (h *Histogram) Mean() float64 {
	// For the piecewise-linear CDF the integral is exact via trapezoids
	// over bin edges; for discrete, each bin contributes (1-F(edge)) * width
	// with F constant across the bin.
	var integral float64
	prev := 0.0
	for i := range h.cum {
		if h.discrete {
			integral += (1 - prev) * h.width
		} else {
			integral += (1 - (prev+h.cum[i])/2) * h.width
		}
		prev = h.cum[i]
	}
	return integral
}

// Std returns the standard deviation of the distance implied by the
// histogram's shape — the σ of the concentration ratio σ/μ that flags
// high intrinsic dimension (as μ grows and σ shrinks, every pairwise
// distance looks alike and metric pruning stops working). Bin mass is
// taken uniform within each bin for continuous histograms and at the
// bin's distance value for discrete ones, matching Mean's conventions.
func (h *Histogram) Std() float64 {
	mean := h.Mean()
	var sq float64 // E[X^2]
	prev := 0.0
	for i := range h.cum {
		mass := h.cum[i] - prev
		if mass > 0 {
			if h.discrete {
				v := h.Edge(i)
				sq += mass * v * v
			} else {
				a := float64(i) * h.width
				b := h.Edge(i)
				sq += mass * (a*a + a*b + b*b) / 3
			}
		}
		prev = h.cum[i]
	}
	v := sq - mean*mean
	if v < 0 {
		v = 0 // floating noise on (near-)point-mass histograms
	}
	return math.Sqrt(v)
}

// Edge returns the upper edge of bin i (0-based): (i+1)*width.
func (h *Histogram) Edge(i int) float64 { return float64(i+1) * h.width }

// CumAt returns F at the upper edge of bin i, i.e. the stored cumulative
// fraction. It panics on out-of-range i.
func (h *Histogram) CumAt(i int) float64 { return h.cum[i] }

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	out := &Histogram{bound: h.bound, width: h.width, total: h.total, discrete: h.discrete}
	out.cum = append([]float64(nil), h.cum...)
	return out
}

// Rebinned returns a new histogram with the given (smaller) bin count by
// resampling the CDF at the coarser edges. Used by the bin-count ablation.
func (h *Histogram) Rebinned(bins int) (*Histogram, error) {
	out, err := New(bins, h.bound, h.discrete)
	if err != nil {
		return nil, err
	}
	for i := 0; i < bins; i++ {
		out.cum[i] = h.CDF(out.Edge(i))
	}
	out.cum[bins-1] = 1
	out.total = h.total
	return out, nil
}

// Truncated returns the distance distribution conditioned on X <= cap:
// F_i(x) = F(x)/F(cap) for x <= cap, 1 beyond (paper Eq. 22). The result
// keeps the same bin granularity over the reduced bound. If F(cap) is 0
// the result is a degenerate point mass at 0 over [0,cap].
func (h *Histogram) Truncated(cap float64) (*Histogram, error) {
	if cap <= 0 || cap > h.bound {
		return nil, fmt.Errorf("histogram: truncation cap %g outside (0, %g]", cap, h.bound)
	}
	denom := h.CDF(cap)
	bins := len(h.cum)
	out, err := New(bins, cap, h.discrete)
	if err != nil {
		return nil, err
	}
	for i := 0; i < bins; i++ {
		if denom <= 0 {
			out.cum[i] = 1
			continue
		}
		v := h.CDF(out.Edge(i)) / denom
		if v > 1 {
			v = 1
		}
		out.cum[i] = v
	}
	out.cum[bins-1] = 1
	out.total = h.total
	return out, nil
}
