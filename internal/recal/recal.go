// Package recal closes the loop between the cost model and the live
// index: the paper's predictions (L-MCM, Eq. 15-18) are functions of
// the relative distance distribution F̂ and per-level tree statistics,
// both frozen at build time, while inserts, deletes, and workload shift
// move the true distribution out from under them. A Recalibrator keeps
// the predictions honest with three mechanisms:
//
//   - Incremental F̂ maintenance. Every Insert/Delete samples a handful
//     of distances between the written object and a reservoir-sampled
//     set of live objects, accumulating them into a live count vector.
//     The build-time histogram's counts are carried alongside with a
//     weight that decays by ×(1 − 2/n) per write, so after the index
//     has turned over, the live regime dominates. Histogram() blends
//     the two into a distribution the model can be refit from.
//
//   - Per-level multiplicative bias correction. The serving layer feeds
//     back each traced execution: the model's per-level prediction
//     (RangeLByLevel) joined against the per-level observed node reads
//     and distance computations from the internal/obs trace — the
//     residuals experiment's join, computed online over a sliding
//     window. CorrectRange/CorrectNN scale predictions by the windowed
//     observed/predicted ratio, so admission prices track what queries
//     actually spend even between model refits.
//
//   - Drift alarm. The windowed relative error of the predictions that
//     were actually served (after correction, if the caller corrects)
//     is compared against a configured band; each crossing from inside
//     to outside raises an alarm. Stats() exposes the error, the band
//     occupancy, and the alarm count for /v1/stats.
//
// A Recalibrator is safe for concurrent use; all methods take an
// internal mutex. It never touches the tree itself — callers own the
// write path and report writes here.
package recal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mcost/internal/core"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/obs"
)

// Config tunes a Recalibrator. The zero value of each field selects the
// default noted on it.
type Config struct {
	// Window is the number of traced executions the bias/error window
	// holds (default 64). One batched dispatch is one entry, weighted by
	// its query count.
	Window int
	// Band is the relative-error band of the drift alarm (default 0.5):
	// the windowed |served − observed| / observed ratio is "in band"
	// while ≤ Band.
	Band float64
	// SampleK is the number of reservoir distances sampled per write
	// (default 24). Higher is a sharper live F̂ per write, at K distance
	// computations per Insert/Delete.
	SampleK int
	// Reservoir is the number of live objects kept for distance
	// sampling (default 512).
	Reservoir int
	// RefreshEvery marks the model stale every this many writes
	// (default 128): NeedRefresh flips true, the owner refits from
	// Histogram() and fresh tree stats, then calls MarkRefreshed.
	RefreshEvery int
	// Seed makes the reservoir and distance sampling deterministic.
	Seed int64
}

// Effective returns the config with defaults filled in — what New will
// actually run with (for display and tests).
func (c Config) Effective() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Band <= 0 {
		c.Band = 0.5
	}
	if c.SampleK <= 0 {
		c.SampleK = 24
	}
	if c.Reservoir <= 0 {
		c.Reservoir = 512
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 128
	}
	return c
}

// biasClamp bounds every learned multiplicative bias factor: a window
// dominated by a few tiny predictions must not blow admission prices up
// (or down) by orders of magnitude.
const biasMin, biasMax = 0.2, 5.0

// entry is one traced execution in the sliding window. All sums are
// over the entry's queries, so window ratios are query-weighted.
type entry struct {
	queries float64
	// rawNodes/rawDists are the uncorrected per-level predictions (nil
	// for NN executions, which have no per-level model breakdown).
	rawNodes, rawDists []float64
	rawTotN, rawTotD   float64
	// servedN/servedD are the predictions actually used for admission —
	// corrected, when the caller corrects.
	servedN, servedD float64
	// obsNodes/obsDists are the per-level observed costs from the trace.
	obsNodes, obsDists []float64
	obsTotN, obsTotD   float64
}

// Recalibrator is the live feedback controller for one index (or one
// shard). Construct with New.
type Recalibrator struct {
	cfg   Config
	space *metric.Space

	mu  sync.Mutex
	rng *rand.Rand

	// Live F̂ state.
	base       *histogram.Histogram // build-time histogram (shape + counts source)
	baseCounts []float64            // integer counts recovered from the build histogram
	baseScale  float64              // per-count multiplier aligning base mass with live mass
	baseDecay  float64              // remaining fraction of the build-time mass
	live       []int64              // sampled distance counts since build
	liveTotal  int64
	reservoir  []metric.Object
	seen       int64 // objects offered to the reservoir
	size       int   // current index size (tracked, for the decay rate)

	// Write bookkeeping.
	inserts, deletes int64
	sinceRefresh     int
	refreshRequested bool

	// Sliding window.
	window []entry
	next   int  // ring position
	filled bool // ring has wrapped

	// Alarm state.
	inBand bool
	alarms int64
}

// New returns a recalibrator for a space whose build-time distance
// distribution is base and whose index currently holds size objects.
// seedSample provides live objects to prime the distance-sampling
// reservoir (typically the build dataset); it may be short or empty, in
// which case the reservoir fills from subsequent inserts.
func New(cfg Config, base *histogram.Histogram, space *metric.Space, size int, seedSample []metric.Object) (*Recalibrator, error) {
	if base == nil {
		return nil, errors.New("recal: nil base histogram")
	}
	if space == nil {
		return nil, errors.New("recal: nil space")
	}
	if size <= 0 {
		return nil, fmt.Errorf("recal: index size %d, need > 0", size)
	}
	cfg = cfg.withDefaults()
	r := &Recalibrator{
		cfg:    cfg,
		space:  space,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		live:   make([]int64, base.Bins()),
		size:   size,
		inBand: true,
	}
	// Recover the build histogram's integer bin counts from its
	// cumulative fractions (the same arithmetic histogram.Merge uses).
	r.baseCounts = make([]float64, base.Bins())
	var prev int64
	for i := 0; i < base.Bins(); i++ {
		run := int64(math.Round(base.CumAt(i) * float64(base.N())))
		r.baseCounts[i] = float64(run - prev)
		prev = run
	}
	// Scale the base mass into the live currency — SampleK samples per
	// object — so "index doubled under writes" means "live mass caught
	// up with base mass" regardless of how many pairs estimation drew.
	mass := float64(cfg.SampleK) * float64(size)
	if n := float64(base.N()); n > 0 {
		r.baseScale = mass / n
	} else {
		r.baseScale = 1
	}
	r.baseDecay = 1
	// Prime the reservoir with a deterministic sample of the live set.
	cap := cfg.Reservoir
	if cap > len(seedSample) {
		cap = len(seedSample)
	}
	if cap > 0 {
		perm := r.rng.Perm(len(seedSample))
		r.reservoir = make([]metric.Object, 0, cfg.Reservoir)
		for _, i := range perm[:cap] {
			r.reservoir = append(r.reservoir, seedSample[i])
		}
	}
	r.seen = int64(len(r.reservoir))
	r.base = base
	return r, nil
}

// sampleInto draws SampleK reservoir distances to obj and applies delta
// (+1 insert, −1 delete, clamped at zero) to the hit bins. Caller holds
// r.mu.
func (r *Recalibrator) sampleInto(obj metric.Object, delta int64) {
	if len(r.reservoir) == 0 {
		return
	}
	for k := 0; k < r.cfg.SampleK; k++ {
		peer := r.reservoir[r.rng.Intn(len(r.reservoir))]
		d := r.space.Distance(obj, peer)
		i := r.binOf(d)
		if delta > 0 {
			r.live[i]++
			r.liveTotal++
		} else if r.live[i] > 0 {
			r.live[i]--
			r.liveTotal--
		}
	}
}

// binOf maps a distance to its histogram bin, mirroring the histogram
// package's right-closed continuous / ceil-minus-one discrete rule.
func (r *Recalibrator) binOf(v float64) int {
	bins := len(r.live)
	width := r.base.Bound() / float64(bins)
	if v <= 0 {
		return 0
	}
	i := int(v / width)
	if r.base.Discrete() {
		i = int(math.Ceil(v/width)) - 1
		if i < 0 {
			i = 0
		}
	} else if float64(i)*width == v && i > 0 {
		i--
	}
	if i >= bins {
		i = bins - 1
	}
	return i
}

// decayStep ages the build-time mass after one write. Caller holds r.mu.
func (r *Recalibrator) decayStep() {
	n := r.size
	if n < 8 {
		n = 8
	}
	r.baseDecay *= 1 - 2/float64(n)
	r.sinceRefresh++
	if r.sinceRefresh >= r.cfg.RefreshEvery {
		r.refreshRequested = true
	}
}

// ObserveInsert folds one inserted object into the live distribution
// and the sampling reservoir.
func (r *Recalibrator) ObserveInsert(obj metric.Object) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampleInto(obj, +1)
	// Reservoir-sample the insert stream so the peer set stays a
	// uniform sample of everything ever offered.
	r.seen++
	if len(r.reservoir) < r.cfg.Reservoir {
		r.reservoir = append(r.reservoir, obj)
	} else if j := r.rng.Int63n(r.seen); int(j) < len(r.reservoir) {
		r.reservoir[j] = obj
	}
	r.size++
	r.inserts++
	r.decayStep()
}

// ObserveDelete folds one deleted object out of the live distribution.
// The reservoir is left untouched: it is a statistical sample, and the
// deleted object's residual presence is one draw among Reservoir.
func (r *Recalibrator) ObserveDelete(obj metric.Object) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sampleInto(obj, -1)
	if r.size > 1 {
		r.size--
	}
	r.deletes++
	r.decayStep()
}

// Histogram blends the decayed build-time counts with the live sampled
// counts into the current F̂ estimate.
func (r *Recalibrator) Histogram() (*histogram.Histogram, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	weights := make([]float64, len(r.live))
	w := r.baseScale * r.baseDecay
	for i := range weights {
		weights[i] = r.baseCounts[i]*w + float64(r.live[i])
	}
	return histogram.FromWeightedCounts(weights, r.base.Bound(), r.base.Discrete())
}

// NeedRefresh reports whether RefreshEvery writes have accumulated
// since the last MarkRefreshed — the owner's cue to refit the model
// from Histogram() and fresh tree statistics.
func (r *Recalibrator) NeedRefresh() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refreshRequested
}

// MarkRefreshed acknowledges a model refit.
func (r *Recalibrator) MarkRefreshed() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.refreshRequested = false
	r.sinceRefresh = 0
}

// ObserveRange feeds back one traced range execution: rawPerLevel is
// the uncorrected per-query model prediction (RangeLByLevel), served
// the per-query prediction admission actually used, tr the merged trace
// of the execution. In batched serving the observed node cost is the
// amortized (shared-traversal) cost — deliberately so: that is the cost
// the server actually pays, the currency admission drains.
func (r *Recalibrator) ObserveRange(rawPerLevel []core.CostEstimate, served core.CostEstimate, tr *obs.Trace) {
	if tr == nil || tr.Queries == 0 {
		return
	}
	q := float64(tr.Queries)
	e := entry{queries: q, servedN: served.Nodes * q, servedD: served.Dists * q}
	e.rawNodes = make([]float64, len(rawPerLevel))
	e.rawDists = make([]float64, len(rawPerLevel))
	for i, c := range rawPerLevel {
		e.rawNodes[i] = c.Nodes * q
		e.rawDists[i] = c.Dists * q
		e.rawTotN += c.Nodes * q
		e.rawTotD += c.Dists * q
	}
	r.pushObserved(&e, tr)
}

// ObserveNN feeds back one traced k-NN execution. The NN model has no
// per-level breakdown, so NN observations train only the aggregate
// bias and the window error.
func (r *Recalibrator) ObserveNN(raw, served core.CostEstimate, tr *obs.Trace) {
	if tr == nil || tr.Queries == 0 {
		return
	}
	q := float64(tr.Queries)
	e := entry{
		queries: q,
		rawTotN: raw.Nodes * q, rawTotD: raw.Dists * q,
		servedN: served.Nodes * q, servedD: served.Dists * q,
	}
	r.pushObserved(&e, tr)
}

// pushObserved completes the entry from the trace, appends it to the
// ring, and updates the alarm.
func (r *Recalibrator) pushObserved(e *entry, tr *obs.Trace) {
	e.obsNodes = make([]float64, len(tr.Levels))
	e.obsDists = make([]float64, len(tr.Levels))
	for i := range tr.Levels {
		e.obsNodes[i] = float64(tr.Levels[i].Nodes)
		e.obsDists[i] = float64(tr.Levels[i].Dists)
		e.obsTotN += e.obsNodes[i]
		e.obsTotD += e.obsDists[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.window) < r.cfg.Window {
		r.window = append(r.window, *e)
	} else {
		r.window[r.next] = *e
		r.next = (r.next + 1) % r.cfg.Window
		r.filled = true
	}
	err := r.windowErrorLocked()
	if err > r.cfg.Band {
		if r.inBand {
			r.alarms++
			r.inBand = false
		}
	} else {
		r.inBand = true
	}
}

// windowErrorLocked is the windowed relative error of the served
// predictions: max over the two cost dimensions of
// |Σserved − Σobserved| / Σobserved. Caller holds r.mu.
func (r *Recalibrator) windowErrorLocked() float64 {
	var sN, sD, oN, oD float64
	for i := range r.window {
		sN += r.window[i].servedN
		sD += r.window[i].servedD
		oN += r.window[i].obsTotN
		oD += r.window[i].obsTotD
	}
	eN := relErr(sN, oN)
	eD := relErr(sD, oD)
	if eN > eD {
		return eN
	}
	return eD
}

func relErr(pred, obs float64) float64 {
	if obs < 1 {
		obs = 1
	}
	return math.Abs(pred-obs) / obs
}

func clampBias(b float64) float64 {
	if b < biasMin {
		return biasMin
	}
	if b > biasMax {
		return biasMax
	}
	return b
}

// biasLocked returns the per-level multiplicative bias factors (nodes,
// dists) learned from the window, plus the aggregate factors. Levels
// with no predicted mass in the window fall back to the aggregate.
// Caller holds r.mu.
func (r *Recalibrator) biasLocked() (nodes, dists []float64, aggN, aggD float64) {
	var levels int
	var rawTotN, rawTotD, obsTotN, obsTotD float64
	for i := range r.window {
		if l := len(r.window[i].rawNodes); l > levels {
			levels = l
		}
		rawTotN += r.window[i].rawTotN
		rawTotD += r.window[i].rawTotD
		obsTotN += r.window[i].obsTotN
		obsTotD += r.window[i].obsTotD
	}
	aggN, aggD = 1, 1
	if rawTotN > 0 {
		aggN = clampBias(obsTotN / rawTotN)
	}
	if rawTotD > 0 {
		aggD = clampBias(obsTotD / rawTotD)
	}
	if levels == 0 {
		return nil, nil, aggN, aggD
	}
	predN := make([]float64, levels)
	predD := make([]float64, levels)
	obsN := make([]float64, levels)
	obsD := make([]float64, levels)
	for i := range r.window {
		e := &r.window[i]
		if e.rawNodes == nil {
			continue // NN entries train only the aggregate
		}
		for l := 0; l < len(e.rawNodes) && l < levels; l++ {
			predN[l] += e.rawNodes[l]
			predD[l] += e.rawDists[l]
		}
		for l := 0; l < len(e.obsNodes) && l < levels; l++ {
			obsN[l] += e.obsNodes[l]
			obsD[l] += e.obsDists[l]
		}
	}
	nodes = make([]float64, levels)
	dists = make([]float64, levels)
	for l := 0; l < levels; l++ {
		if predN[l] > 0 {
			nodes[l] = clampBias(obsN[l] / predN[l])
		} else {
			nodes[l] = aggN
		}
		if predD[l] > 0 {
			dists[l] = clampBias(obsD[l] / predD[l])
		} else {
			dists[l] = aggD
		}
	}
	return nodes, dists, aggN, aggD
}

// CorrectRange applies the per-level bias to an uncorrected per-level
// range prediction and returns the corrected total. With an empty
// window it degenerates to the plain sum.
func (r *Recalibrator) CorrectRange(rawPerLevel []core.CostEstimate) core.CostEstimate {
	r.mu.Lock()
	nodes, dists, aggN, aggD := r.biasLocked()
	r.mu.Unlock()
	var est core.CostEstimate
	for l, c := range rawPerLevel {
		bN, bD := aggN, aggD
		if l < len(nodes) {
			bN, bD = nodes[l], dists[l]
		}
		est.Nodes += c.Nodes * bN
		est.Dists += c.Dists * bD
	}
	return est
}

// CorrectTotal applies the aggregate bias to any whole-query
// prediction — the correction for models with no per-level breakdown
// (N-MCM, the NN integrals).
func (r *Recalibrator) CorrectTotal(raw core.CostEstimate) core.CostEstimate {
	r.mu.Lock()
	_, _, aggN, aggD := r.biasLocked()
	r.mu.Unlock()
	return core.CostEstimate{Nodes: raw.Nodes * aggN, Dists: raw.Dists * aggD}
}

// CorrectNN applies the aggregate bias to an NN prediction.
func (r *Recalibrator) CorrectNN(raw core.CostEstimate) core.CostEstimate {
	return r.CorrectTotal(raw)
}

// CorrectNNs applies CorrectNN to every prediction in place, reading
// the window once for all of them.
func (r *Recalibrator) CorrectNNs(raw []core.CostEstimate) {
	r.mu.Lock()
	_, _, aggN, aggD := r.biasLocked()
	r.mu.Unlock()
	for i := range raw {
		raw[i] = core.CostEstimate{Nodes: raw[i].Nodes * aggN, Dists: raw[i].Dists * aggD}
	}
}

// Stats is the observable state of a recalibrator, exposed on
// /v1/stats and by the drift experiments.
type Stats struct {
	Inserts, Deletes int64
	// BaseWeight is the remaining fraction of the build-time mass in
	// the blended F̂ (1 at build, →0 as the index turns over).
	BaseWeight float64
	// LiveSamples is the current live sampled-distance count.
	LiveSamples int64
	// ReservoirSize is the number of live objects held for sampling.
	ReservoirSize int
	// WindowError is the current windowed relative error of served
	// predictions (max over cost dimensions).
	WindowError float64
	// InBand reports WindowError <= Band.
	InBand bool
	// DriftAlarms counts in-band → out-of-band crossings.
	DriftAlarms int64
	// WindowQueries is the number of queries currently in the window.
	WindowQueries int64
	// BiasNodesPerLevel / BiasDistsPerLevel are the current learned
	// factors, root first (nil with an empty window).
	BiasNodesPerLevel []float64
	BiasDistsPerLevel []float64
	// Band echoes the configured alarm band.
	Band float64
}

// Stats snapshots the recalibrator.
func (r *Recalibrator) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	nodes, dists, _, _ := r.biasLocked()
	var q float64
	for i := range r.window {
		q += r.window[i].queries
	}
	return Stats{
		Inserts:           r.inserts,
		Deletes:           r.deletes,
		BaseWeight:        r.baseDecay,
		LiveSamples:       r.liveTotal,
		ReservoirSize:     len(r.reservoir),
		WindowError:       r.windowErrorLocked(),
		InBand:            r.windowErrorLocked() <= r.cfg.Band,
		DriftAlarms:       r.alarms,
		WindowQueries:     int64(q),
		BiasNodesPerLevel: nodes,
		BiasDistsPerLevel: dists,
		Band:              r.cfg.Band,
	}
}

// Band returns the configured alarm band.
func (r *Recalibrator) Band() float64 { return r.cfg.Band }
