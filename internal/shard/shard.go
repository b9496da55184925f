// Package shard partitions a dataset across S independent M-trees and
// executes similarity queries against the partition set — the scale-out
// layer over the single-tree engine. Each shard carries its own
// distance histogram F̂ᵢ and fitted L-MCM cost model, so the set can
// both predict workload cost (per-shard predictions sum) and prune
// whole shards at query time: with pivot-based assignment every shard
// holds the objects nearest its pivot, inside a ball around it, so the
// S query-to-pivot distances lower-bound the distance from q to
// anything in each shard (LowerBounds); a range query skips the shards
// whose bound exceeds its radius, and a k-NN visit is skipped once the
// running k-th distance beats the bound.
//
// Determinism: shard assignment, per-shard builds, and result merging
// are all functions of (objects, Options) alone — fan-out parallelism
// writes into shard-indexed slots and merges in shard order, so results
// and measured counters are identical at any worker count, exactly the
// discipline internal/parallel documents.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/parallel"
	"mcost/internal/recal"
)

// Assignment selects how objects are distributed across shards.
type Assignment int

const (
	// RoundRobin assigns object i to shard i mod S: perfectly balanced
	// shards with statistically identical distance distributions, but no
	// geometric locality — every query visits every shard.
	RoundRobin Assignment = iota
	// Pivot assigns each object to the nearest of S pivots chosen by
	// greedy farthest-point traversal. Shards become metric balls, so
	// queries can skip shards whose lower bound proves them irrelevant.
	Pivot
)

func (a Assignment) String() string {
	switch a {
	case RoundRobin:
		return "round-robin"
	case Pivot:
		return "pivot"
	default:
		return fmt.Sprintf("Assignment(%d)", int(a))
	}
}

// ParseAssignment maps the CLI flag spelling to an Assignment.
func ParseAssignment(s string) (Assignment, error) {
	switch s {
	case "round-robin", "roundrobin", "rr":
		return RoundRobin, nil
	case "pivot":
		return Pivot, nil
	default:
		return 0, fmt.Errorf("shard: unknown assignment %q (want round-robin or pivot)", s)
	}
}

// pivotSampleCap bounds the candidate pool scanned per greedy
// farthest-point step so pivot selection stays O(cap·S) distances.
const pivotSampleCap = 2048

// Options configures Build.
type Options struct {
	// Shards is the number of partitions S (required, >= 1).
	Shards int
	// Assign selects the partitioning strategy.
	Assign Assignment
	// PageSize is each shard tree's node size (default 4096).
	PageSize int
	// HistogramBins / SamplePairs configure each shard's F̂ᵢ estimate
	// (zero picks the distdist defaults).
	HistogramBins int
	SamplePairs   int
	// Seed drives pivot selection and per-shard estimation; shard i
	// draws its own streams from it (see streams).
	Seed int64
	// Workers bounds the goroutines used for shard builds and query
	// fan-out (0 = runtime.NumCPU()). Results are identical at any
	// worker count.
	Workers int
	// Incremental inserts objects one by one instead of bulk loading.
	Incremental bool
	// TreeOptions, when non-nil, supplies the base mtree.Options for
	// shard i — the hook the facade uses to mount each shard on its own
	// storage stack (pager, codec, metrics). Space, PageSize, and Seed
	// are overwritten by Build to keep shards consistent.
	TreeOptions func(i int) (mtree.Options, error)
	// Arena, when non-nil, freezes each shard tree into the flat
	// columnar arena after its build (see mtree.Tree.FreezeArena). A
	// pointer to an empty config rather than a bool because bench/ sets it.
	Arena *mtree.ArenaConfig
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	return o
}

// streams is shard i's seed schedule, the one Build, BuildOne and
// Set.EnableRecalibration draw from: the tree's seed, F̂'s sampling seed
// and the workers F̂ is estimated on, and the recalibration reservoir's
// seed out of recalSeed.
type streams struct {
	tree, est, recal int64
	workers          int
}

func (o Options) streams(i int, recalSeed int64) streams {
	if o.Shards == 1 { // S = 1: a lone tree's seeds, as an unsharded index has always drawn them
		return streams{o.Seed, o.Seed + 1, recalSeed, o.Workers}
	}
	// One F̂ worker per shard: shard builds already fan out.
	return streams{parallel.SplitSeed(o.Seed, 2+i), parallel.SplitSeed(o.Seed, 1000+i), parallel.SplitSeed(recalSeed, 5000+i), 1}
}

// Shard is one cost-modeled M-tree: the tree over its objects, the
// distance distribution F̂ and tree statistics the paper's L-MCM prices
// it from, and the fitted model. It is a partition of a Set — the tree
// side of an mcost.Index, whose one shard at S = 1 maps OID i to i — or
// a node of a cluster: building, running, writing to, refitting and
// recalibrating such a tree is written here once.
type Shard struct {
	Tree  *mtree.Tree
	F     *histogram.Histogram
	Stats *mtree.Stats
	Model *core.MTreeModel
	// Objects are the shard's members in local-OID order; OIDs maps a
	// local OID (dense insertion index) back to the global OID, i.e.
	// the object's index in the dataset handed to Build. A shard frozen
	// at build keeps the arena's leaf views here, not the objects it was
	// given (see New).
	Objects []metric.Object
	OIDs    []uint64
	// Pivot and Radius describe the shard's bounding ball under Pivot
	// assignment: every member lies within Radius of Pivot. Pivot is
	// nil for RoundRobin shards (no geometric bound; Radius is d+).
	Pivot  metric.Object
	Radius float64
	// Stages is where this shard's build time went.
	Stages Stages
	// rc, when non-nil, keeps this shard's model live under writes (see
	// EnableRecalibration).
	rc *recal.Recalibrator
}

// Stages times the stages of one shard's build: tree construction,
// arena freeze (0 with the arena off), sampling F̂, and tree statistics
// plus model fit.
type Stages struct {
	Bulkload, Freeze, Estimate, Model time.Duration
}

// New builds one cost-modeled tree over objs, whose global OIDs are
// oids: it bulk-loads the tree from mo (inserts one by one when
// incremental), freezes it into the arena when arena is non-nil, samples
// F̂ under est (whose seed and worker count the caller picks) and fits
// L-MCM. The shard keeps objs and appends to it on Insert. A frozen
// shard overwrites objs with the arena's leaf views, so on vector spaces
// the arena slab is the only copy of the members it holds.
func New(objs []metric.Object, oids []uint64, mo mtree.Options, incremental bool, arena *mtree.ArenaConfig, est distdist.Options) (*Shard, error) {
	sh := &Shard{Objects: objs, OIDs: oids}
	clock := obs.StartStopwatch()
	var err error
	if sh.Tree, err = mtree.New(mo); err != nil {
		return nil, err
	}
	if incremental {
		err = sh.Tree.InsertAll(objs)
	} else {
		err = sh.Tree.BulkLoad(objs)
	}
	if err != nil {
		return nil, err
	}
	sh.Stages.Bulkload = clock.Lap()
	if arena != nil {
		if err := sh.Tree.FreezeArena(*arena); err != nil {
			return nil, fmt.Errorf("freezing arena: %w", err)
		}
		views, locals := sh.Tree.Arena().Leaves(nil, nil)
		for j, local := range locals {
			objs[local] = views[j]
		}
		sh.Stages.Freeze = clock.Lap()
	}
	if sh.Stats, err = sh.Tree.CollectStats(); err != nil {
		return nil, err
	}
	sh.Stages.Model = clock.Lap()
	if sh.F, err = distdist.Estimate(&dataset.Dataset{Name: "shard", Space: mo.Space, Objects: objs}, est); err != nil {
		return nil, err
	}
	sh.Stages.Estimate = clock.Lap()
	if sh.Model, err = core.NewMTreeModel(sh.F, sh.Stats); err != nil {
		return nil, err
	}
	sh.Stages.Model += clock.Lap()
	return sh, nil
}

// PriceRange returns the shard's L-MCM range price, bias-corrected when
// recalibration is enabled — the term this shard contributes to
// Set.PredictRange.
func (sh *Shard) PriceRange(radius float64) core.CostEstimate {
	if sh.rc != nil {
		return sh.rc.CorrectRange(sh.Model.RangeLByLevel(radius))
	}
	return sh.Model.RangeL(radius)
}

// PriceNN returns the shard's L-MCM k-NN price from the model's price
// table, with k clamped to the shard size and bias-corrected when
// recalibration is enabled — the term this shard contributes to
// Set.PredictNN.
func (sh *Shard) PriceNN(k int) core.CostEstimate {
	if n := sh.Tree.Size(); k > n {
		k = n
	}
	if k < 1 {
		return core.CostEstimate{}
	}
	if sh.rc != nil {
		return sh.rc.CorrectNN(sh.Model.NNLCached(k))
	}
	return sh.Model.NNLCached(k)
}

// PriceNNPrefix returns PriceNN(k) for k = 1..K, the model's prices
// from one pass (core's NNLPrefix) corrected as PriceNN corrects them.
// A k past the shard's size repeats the last price, as PriceNN's clamp
// quotes it; an empty shard, whose every price is zero, returns none.
func (sh *Shard) PriceNNPrefix(K int) []core.CostEstimate {
	est := sh.Model.NNLPrefix(min(K, sh.Tree.Size()))
	if sh.rc != nil {
		sh.rc.CorrectNNs(est)
	}
	for len(est) > 0 && len(est) < K {
		est = append(est, est[len(est)-1])
	}
	return est
}

// Recal returns the shard's recalibrator, nil when recalibration is off.
func (sh *Shard) Recal() *recal.Recalibrator { return sh.rc }

// Costs returns the tree's node reads and distance computations since
// the last ResetCosts.
func (sh *Shard) Costs() (nodeReads, distances int64) {
	return sh.Tree.NodeReads(), sh.Tree.DistanceCount()
}

// ResetCosts zeroes the tree's counters.
func (sh *Shard) ResetCosts() { sh.Tree.ResetCounters() }

// Run answers the queries qs as one batch on the shard tree: k-NN when
// k > 0, else range at radius. It records into opt.Trace, which a
// parallel caller gives each shard on its own and merges in shard
// order. With recalibration on the tree records into a private trace,
// merged into opt.Trace afterwards, and a clean run feeds it to the
// recalibrator: a budget- or context-stopped run observed less work
// than the full query costs. The result holds one slot per query, in
// global OIDs, also when the run stops early.
func (sh *Shard) Run(qs []metric.Object, radius float64, k int, opt mtree.QueryOptions) ([][]mtree.Match, error) {
	tr := opt.Trace
	if sh.rc != nil {
		opt.Trace = obs.NewTrace()
	}
	var res [][]mtree.Match
	var err error
	if k > 0 {
		res, err = sh.Tree.NNBatch(qs, k, opt)
	} else {
		res, err = sh.Tree.RangeBatch(qs, radius, opt)
	}
	if sh.rc != nil {
		tr.Merge(opt.Trace)
		if err == nil {
			sh.observe(radius, k, opt.Trace)
		}
	}
	if res == nil {
		res = make([][]mtree.Match, len(qs))
	}
	for _, ms := range res {
		sh.Global(ms)
	}
	return res, err
}

// Global rewrites the tree-local OIDs of ms to global OIDs in place and
// returns ms.
func (sh *Shard) Global(ms []mtree.Match) []mtree.Match {
	for j := range ms {
		ms[j].OID = sh.OIDs[ms[j].OID]
	}
	return ms
}

// observe feeds one clean execution's trace back into the recalibrator:
// the raw per-level (range) or aggregate (k-NN) prediction beside the
// corrected one the shard priced it at.
func (sh *Shard) observe(radius float64, k int, tr *obs.Trace) {
	if k <= 0 {
		raw := sh.Model.RangeLByLevel(radius)
		sh.rc.ObserveRange(raw, sh.rc.CorrectRange(raw), tr)
		return
	}
	if k = min(k, sh.Tree.Size()); k >= 1 {
		raw := sh.Model.NNLCached(k)
		sh.rc.ObserveNN(raw, sh.rc.CorrectNN(raw), tr)
	}
}

// Insert stores obj under the global OID gid: the tree insert, the OID
// map and member list, and with recalibration on the F̂ update and the
// model refit when one is due. refit reports that a refit ran. A
// non-nil error with refit false means nothing was stored; with refit
// true obj is stored and the refit failed, leaving the old model. Not
// safe concurrent with queries or other writes.
func (sh *Shard) Insert(obj metric.Object, gid uint64) (refit bool, err error) {
	if local := sh.Tree.NextOID(); int(local) != len(sh.OIDs) {
		// Tree-local OIDs are dense insertion indexes; OIDs must mirror
		// them exactly or Run would mistranslate results.
		return false, fmt.Errorf("shard: local OID %d does not extend OID map of length %d", local, len(sh.OIDs))
	}
	if err := sh.Tree.Insert(obj); err != nil {
		return false, err
	}
	sh.OIDs = append(sh.OIDs, gid)
	sh.Objects = append(sh.Objects, obj)
	if sh.rc == nil {
		return false, nil
	}
	sh.rc.ObserveInsert(obj)
	return sh.refitIfDue()
}

// Delete removes the object stored under the local OID (see
// mtree.Tree.Delete for the identity check); refit and err are Insert's.
// The OID map keeps the entry: local OIDs are never reused.
func (sh *Shard) Delete(obj metric.Object, local uint64) (refit bool, err error) {
	if err := sh.Tree.Delete(obj, local); err != nil {
		return false, err
	}
	if sh.rc == nil {
		return false, nil
	}
	sh.rc.ObserveDelete(obj)
	return sh.refitIfDue()
}

// EnableRecalibration attaches a recalibrator to the shard: F̂ follows
// every later write through reservoir-sampled distances seeded from
// sample, clean runs feed the bias window, prices turn bias-corrected,
// and the model is refit from the blended F̂ every cfg.RefreshEvery
// writes.
func (sh *Shard) EnableRecalibration(cfg recal.Config, sample []metric.Object) error {
	rc, err := recal.New(cfg, sh.F, sh.Tree.Space(), sh.Tree.Size(), sample)
	if err != nil {
		return err
	}
	sh.rc = rc
	return nil
}

// Refit re-collects the tree statistics and refits the model over f.
func (sh *Shard) Refit(f *histogram.Histogram) error {
	stats, err := sh.Tree.CollectStats()
	if err != nil {
		return err
	}
	model, err := core.NewMTreeModel(f, stats)
	if err != nil {
		return err
	}
	sh.F, sh.Stats, sh.Model = f, stats, model
	return nil
}

// refitIfDue refits the model from the recalibrator's blended F̂ when
// enough writes have accumulated, reporting whether it tried.
func (sh *Shard) refitIfDue() (bool, error) {
	if !sh.rc.NeedRefresh() {
		return false, nil
	}
	f, err := sh.rc.Histogram()
	if err == nil {
		err = sh.Refit(f)
	}
	if err != nil {
		return true, fmt.Errorf("shard: recalibration refresh: %w", err)
	}
	sh.rc.MarkRefreshed()
	return true, nil
}

// Set is a sharded index: S independent M-trees behind one query
// surface. Like the underlying trees it supports concurrent read-only
// queries but not concurrent mutation.
type Set struct {
	space  *metric.Space
	opt    Options
	shards []*Shard
	// pruneDists counts the pivot distances computed to order and prune
	// shards — real CPU cost the per-tree counters cannot see.
	pruneDists atomic.Int64
	// skipped counts shard visits avoided by the lower-bound prune.
	skipped atomic.Int64
	// Write state, built lazily on the first Insert/Delete. Writes
	// follow the tree contract: not safe concurrent with queries or
	// with each other — the serving layer serializes them.
	nextGlobal uint64
	oidIndex   map[uint64]oidLoc
}

// oidLoc locates a global OID: which shard holds it, under which local
// (dense insertion-order) OID.
type oidLoc struct {
	shard int
	local uint64
}

// QueryOptions tunes query execution against a Set.
type QueryOptions struct {
	// UseParentDist enables the per-tree triangle-inequality
	// optimization (see mtree.QueryOptions).
	UseParentDist bool
	// Workers bounds the shard fan-out goroutines (0 = all CPUs).
	Workers int
	// Trace, when non-nil, accumulates every visited shard's trace,
	// merged in shard order (levels are per-shard tree levels).
	Trace *obs.Trace
	// Budget caps each shard's traversal independently (a per-shard
	// cap: the fan-out runs S guarded queries). Budget-stopped shards
	// contribute their partial results.
	Budget budget.Budget
	// Ctx cancels in-flight shard traversals (nil = background).
	Ctx context.Context
}

func (o QueryOptions) tree() mtree.QueryOptions {
	return mtree.QueryOptions{UseParentDist: o.UseParentDist, Budget: o.Budget, Ctx: o.Ctx, Trace: o.Trace}
}

// Build partitions the objects, bulk-loads one M-tree per shard, and
// fits each shard's distance distribution and cost model. Shard builds
// run in parallel across Options.Workers; every shard is a
// deterministic function of (objects, Options).
func Build(space *metric.Space, objects []metric.Object, opt Options) (*Set, error) {
	if space == nil {
		return nil, errors.New("shard: nil space")
	}
	opt = opt.withDefaults()
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: %d shards", opt.Shards)
	}
	if len(objects) < 2*opt.Shards {
		return nil, fmt.Errorf("shard: %d objects cannot fill %d shards (need >= 2 per shard)", len(objects), opt.Shards)
	}
	parts, pivots, radii, err := assign(space, objects, opt)
	if err != nil {
		return nil, err
	}
	set := &Set{space: space, opt: opt, shards: make([]*Shard, opt.Shards)}
	err = parallel.For(opt.Workers, opt.Shards, func(i int) (err error) {
		set.shards[i], err = buildShard(space, objects, parts, pivots, radii, i, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// assign returns per-shard member index lists, plus pivot indices and
// covering radii under Pivot assignment (nil otherwise).
func assign(space *metric.Space, objects []metric.Object, opt Options) (parts [][]int, pivots []int, radii []float64, err error) {
	s := opt.Shards
	parts = make([][]int, s)
	if opt.Assign == RoundRobin {
		for i := range objects {
			parts[i%s] = append(parts[i%s], i)
		}
		return parts, nil, nil, nil
	}
	pivots = selectPivots(space, objects, s, opt.Seed)
	radii = make([]float64, s)
	for i, o := range objects {
		bestShard, bestD := 0, math.Inf(1)
		for p, pi := range pivots {
			if d := space.Distance(o, objects[pi]); d < bestD {
				bestShard, bestD = p, d
			}
		}
		parts[bestShard] = append(parts[bestShard], i)
		if bestD > radii[bestShard] {
			radii[bestShard] = bestD
		}
	}
	for i, p := range parts {
		if len(p) < 2 {
			return nil, nil, nil, fmt.Errorf(
				"shard: pivot assignment left shard %d with %d object(s); use fewer shards or round-robin", i, len(p))
		}
	}
	return parts, pivots, radii, nil
}

// selectPivots picks s well-separated object indices by greedy
// farthest-point traversal over a seeded candidate sample: the first
// pivot is a random object, each next pivot maximizes its minimum
// distance to the pivots chosen so far (ties to the lower index).
func selectPivots(space *metric.Space, objects []metric.Object, s int, seed int64) []int {
	cands := make([]int, 0, pivotSampleCap)
	if len(objects) <= pivotSampleCap {
		for i := range objects {
			cands = append(cands, i)
		}
	} else {
		// Deterministic stride sample offset by the seed.
		stride := len(objects) / pivotSampleCap
		off := int(uint64(parallel.SplitSeed(seed, 0)) % uint64(stride))
		for i := off; i < len(objects) && len(cands) < pivotSampleCap; i += stride {
			cands = append(cands, i)
		}
	}
	first := int(uint64(parallel.SplitSeed(seed, 1)) % uint64(len(cands)))
	pivots := []int{cands[first]}
	minD := make([]float64, len(cands))
	for j, c := range cands {
		minD[j] = space.Distance(objects[c], objects[pivots[0]])
	}
	for len(pivots) < s {
		best, bestD := -1, -1.0
		for j, c := range cands {
			if minD[j] > bestD && c != pivots[len(pivots)-1] {
				best, bestD = j, minD[j]
			}
		}
		next := cands[best]
		pivots = append(pivots, next)
		for j, c := range cands {
			if d := space.Distance(objects[c], objects[next]); d < minD[j] {
				minD[j] = d
			}
		}
	}
	return pivots
}

// buildShard builds shard i of the assignment: its members' tree and F̂
// on the shard's streams, and its ball.
func buildShard(space *metric.Space, objects []metric.Object, parts [][]int, pivots []int, radii []float64, i int, opt Options) (*Shard, error) {
	objs := make([]metric.Object, len(parts[i]))
	oids := make([]uint64, len(parts[i]))
	for j, gi := range parts[i] {
		objs[j] = objects[gi]
		oids[j] = uint64(gi)
	}
	mo := mtree.Options{}
	if opt.TreeOptions != nil {
		var err error
		if mo, err = opt.TreeOptions(i); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	st := opt.streams(i, 0)
	mo.Space, mo.PageSize, mo.Seed = space, opt.PageSize, st.tree
	sh, err := New(objs, oids, mo, opt.Incremental, opt.Arena, distdist.Options{
		Bins:     opt.HistogramBins,
		MaxPairs: opt.SamplePairs,
		Seed:     st.est,
		Workers:  st.workers,
	})
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	sh.Radius = space.Bound
	if pivots != nil {
		sh.Pivot, sh.Radius = objects[pivots[i]], radii[i]
	}
	return sh, nil
}

// NumShards returns S.
func (s *Set) NumShards() int { return len(s.shards) }

// Shards exposes the partitions (read-only by convention).
func (s *Set) Shards() []*Shard { return s.shards }

// Size returns the total indexed object count.
func (s *Set) Size() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Tree.Size()
	}
	return n
}

// NumNodes returns the summed node count across shard trees.
func (s *Set) NumNodes() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Tree.NumNodes()
	}
	return n
}

// Height returns the tallest shard tree's height.
func (s *Set) Height() int {
	h := 0
	for _, sh := range s.shards {
		if sh.Tree.Height() > h {
			h = sh.Tree.Height()
		}
	}
	return h
}

// PageSize returns the node size shared by all shard trees.
func (s *Set) PageSize() int { return s.opt.PageSize }

// Costs returns the node reads and distance computations accumulated
// since the last ResetCosts, summed across shards. Distances include
// the query-to-pivot computations spent ordering and pruning shards.
func (s *Set) Costs() (nodeReads, distCalcs int64) {
	for _, sh := range s.shards {
		n, d := sh.Costs()
		nodeReads, distCalcs = nodeReads+n, distCalcs+d
	}
	return nodeReads, distCalcs + s.pruneDists.Load()
}

// ResetCosts zeroes every shard's counters plus the pruning counters.
// Like mtree.Tree.ResetCounters it must not race with in-flight
// queries.
func (s *Set) ResetCosts() {
	for _, sh := range s.shards {
		sh.ResetCosts()
	}
	s.pruneDists.Store(0)
	s.skipped.Store(0)
}

// ShardsSkipped returns the shard visits avoided by the lower-bound
// prune since the last ResetCosts.
func (s *Set) ShardsSkipped() int64 { return s.skipped.Load() }

// PredictRange predicts a range query's cost as the sum of the shards'
// L-MCM predictions — without pruning every shard is traversed, so
// per-shard costs add. With recalibration enabled each shard's term
// carries that shard's learned bias correction.
func (s *Set) PredictRange(radius float64) core.CostEstimate {
	return s.Sum(func(sh *Shard) core.CostEstimate { return sh.PriceRange(radius) })
}

// PredictNN predicts a k-NN query's cost as the sum of the shards'
// L-MCM k-NN predictions, bias-corrected per shard when recalibration
// is enabled. Each shard answers k-NN over its own subset, so the sum
// upper-bounds the pruned execution.
func (s *Set) PredictNN(k int) core.CostEstimate {
	return s.Sum(func(sh *Shard) core.CostEstimate { return sh.PriceNN(k) })
}

// Sum adds a per-shard estimate over the shards in shard order: how a
// prediction for one tree becomes the set's.
func (s *Set) Sum(f func(*Shard) core.CostEstimate) core.CostEstimate {
	var est core.CostEstimate
	for _, sh := range s.shards {
		e := f(sh)
		est.Nodes += e.Nodes
		est.Dists += e.Dists
	}
	return est
}

// PredictNNPrefix returns PredictNN(k) for k = 1..K, summed in the same
// shard order from each shard's one-pass prices.
func (s *Set) PredictNNPrefix(K int) []core.CostEstimate {
	sum := make([]core.CostEstimate, max(K, 0))
	for _, sh := range s.shards {
		for k, e := range sh.PriceNNPrefix(K) {
			sum[k].Nodes += e.Nodes
			sum[k].Dists += e.Dists
		}
	}
	return sum
}

// Ball is a shard's bounding ball under Pivot assignment: every member
// lies within Radius of Pivot. Pivot is nil for a RoundRobin shard.
type Ball struct {
	Pivot  metric.Object
	Radius float64
}

// LowerBounds returns, for each shard i, a lower bound on d(q, X) over
// every member X of the shard, from the S query-to-pivot distances and
// nothing else — the one pruning rule of the in-process Set and of the
// router:
//
//	lbᵢ = max(0, d(q,Pᵢ) − Rᵢ, (d(q,Pᵢ) − minⱼ d(q,Pⱼ)) / 2)
//
// The middle term is the shard's covering ball. The last is the
// generalized-hyperplane bound, and rests on one invariant: every
// member was assigned to its nearest pivot, by assign at build and by
// Set.Insert afterwards (deletes move nothing). So for X in shard i
// and any j,
//
//	d(q,Pᵢ) ≤ d(q,X) + d(X,Pᵢ)      (triangle inequality)
//	        ≤ d(q,X) + d(X,Pⱼ)      (Pᵢ is X's nearest pivot)
//	        ≤ 2·d(q,X) + d(q,Pⱼ)    (triangle inequality)
//
// Where the balls overlap — pivots 2.0 apart under radii of 1.9 on
// clustered D=16 data — the ball term proves almost nothing and this
// one proves most shards empty. A set without pivots has no bound:
// every lbᵢ is 0.
//
// Each bound gives up mtree.BoundGuard of d(q,Pᵢ): it combines three
// computed distances (q to two pivots, and through the assignment or the
// radius a member to its pivot), all at most 1.5·d(q,Pᵢ) when the bound
// is positive, and without the guard a member at exactly the query
// radius on the segment between two pivots is lost to the last bit.
func LowerBounds(space *metric.Space, q metric.Object, balls []Ball) []float64 {
	lb := make([]float64, len(balls))
	if len(balls) == 0 || balls[0].Pivot == nil {
		return lb
	}
	nearest := math.Inf(1)
	for i, b := range balls {
		lb[i] = space.Distance(q, b.Pivot)
		nearest = min(nearest, lb[i])
	}
	for i, d := range lb {
		lb[i] = max(0, max(d-balls[i].Radius, (d-nearest)/2)-mtree.BoundGuard*d)
	}
	return lb
}

// balls returns the shards' bounding balls in shard order.
func (s *Set) balls() []Ball {
	balls := make([]Ball, len(s.shards))
	for i, sh := range s.shards {
		balls[i] = Ball{Pivot: sh.Pivot, Radius: sh.Radius}
	}
	return balls
}

// Bounds is LowerBounds for q against the set's shards, in shard order,
// counted in Costs like the pivot distances of Range and NN.
func (s *Set) Bounds(q metric.Object) []float64 { return s.lowerBounds(q, s.balls()) }

// lowerBounds is LowerBounds for one query against the set, counting
// the pivot distances it spends.
func (s *Set) lowerBounds(q metric.Object, balls []Ball) []float64 {
	if balls[0].Pivot != nil {
		s.pruneDists.Add(int64(len(balls)))
	}
	return LowerBounds(s.space, q, balls)
}

// pick returns the sub-batch qs[subset].
func pick(qs []metric.Object, subset []int) []metric.Object {
	sub := make([]metric.Object, len(subset))
	for j, qi := range subset {
		sub[j] = qs[qi]
	}
	return sub
}

// fanOut runs each shard's non-empty sub-batch qs[subsets[i]] in
// parallel, each into its own trace when the caller traces, and merges
// the traces in shard order.
func (s *Set) fanOut(qs []metric.Object, radius float64, k int, subsets [][]int, opt QueryOptions) ([][][]mtree.Match, []error, error) {
	S := len(s.shards)
	results := make([][][]mtree.Match, S)
	errs := make([]error, S)
	traces := make([]*obs.Trace, S)
	ferr := parallel.For(opt.Workers, S, func(i int) error {
		if len(subsets[i]) == 0 {
			return nil
		}
		to := opt.tree()
		if opt.Trace != nil {
			traces[i] = obs.NewTrace()
		}
		to.Trace = traces[i]
		results[i], errs[i] = s.shards[i].Run(pick(qs, subsets[i]), radius, k, to)
		return nil
	})
	if ferr != nil {
		return nil, nil, ferr
	}
	for _, tr := range traces {
		opt.Trace.Merge(tr)
	}
	return results, errs, nil
}

// firstError returns the lowest-shard-index error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Range returns all objects within radius of q across every shard,
// concatenated in shard order (per-shard order is the tree's DFS
// order): RangeBatch of the one query. Shards whose lower bound exceeds
// radius are skipped — under Pivot assignment that is a proof no member
// can qualify. On a per-shard stop (budget, cancellation, storage
// fault) the merged partial results are returned with the lowest-shard
// error; every returned match is a true match.
func (s *Set) Range(q metric.Object, radius float64, opt QueryOptions) ([]mtree.Match, error) {
	out, err := s.RangeBatch([]metric.Object{q}, radius, opt)
	if out == nil {
		return nil, err
	}
	return out[0], err
}

// less orders matches canonically by (distance, global OID) — the merge
// order for k-NN results across shards.
func less(a, b mtree.Match) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.OID < b.OID
}

// MergeK folds src (any order) into dst (sorted by (distance, global
// OID)) keeping the k best.
func MergeK(dst, src []mtree.Match, k int) []mtree.Match {
	dst = append(dst, src...)
	sort.Slice(dst, func(i, j int) bool { return less(dst[i], dst[j]) })
	if len(dst) > k {
		dst = dst[:k]
	}
	return dst
}

// shardOrder is the k-NN visit order: ascending lower bound, then the
// shard model's predicted k-th-neighbor distance (the cost model
// ordering the shards), then shard index.
type shardCand struct {
	i    int
	lb   float64
	pred float64
}

func (s *Set) shardOrder(q metric.Object, k int) []shardCand {
	order := make([]shardCand, len(s.shards))
	lb := s.Bounds(q)
	for i, sh := range s.shards {
		kk := k
		if n := sh.Tree.Size(); kk > n {
			kk = n
		}
		pred := 0.0
		if kk >= 1 {
			if sh.rc != nil {
				// Recalibrated ordering: rank by corrected predicted
				// distance cost, which tracks drift the build-time
				// ExpectedNNDist cannot see.
				pred = sh.rc.CorrectNN(sh.Model.NNLCached(kk)).Dists
			} else {
				pred = sh.Model.ExpectedNNDistCached(kk)
			}
		}
		order[i] = shardCand{i: i, lb: lb[i], pred: pred}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if x.lb != y.lb {
			return x.lb < y.lb
		}
		if x.pred != y.pred {
			return x.pred < y.pred
		}
		return x.i < y.i
	})
	return order
}

// NN returns the k nearest neighbors of q across all shards, closest
// first (ties by global OID). Shards are visited best-first in
// shardOrder; once k candidates are held, a shard whose lower bound
// exceeds the running k-th distance is skipped — its members provably
// cannot improve the result. Errors follow the Range contract.
func (s *Set) NN(q metric.Object, k int, opt QueryOptions) ([]mtree.Match, error) {
	if q == nil {
		return nil, errors.New("shard: nil query object")
	}
	if k <= 0 {
		return nil, fmt.Errorf("shard: k = %d", k)
	}
	var (
		best     []mtree.Match
		firstErr error
	)
	for _, c := range s.shardOrder(q, k) {
		if len(best) == k && c.lb > best[k-1].Distance {
			s.skipped.Add(1)
			continue
		}
		res, err := s.shards[c.i].Run([]metric.Object{q}, 0, k, opt.tree())
		if err != nil && firstErr == nil {
			firstErr = err
		}
		best = MergeK(best, res[0], k)
	}
	return best, firstErr
}

// RangeBatch answers a batch of range queries: each shard executes one
// shared-traversal mtree.RangeBatch over the subset of queries its
// lower bound cannot exclude, shards fan out in parallel, and per-query
// results merge in shard order. out[i] holds query i's matches.
func (s *Set) RangeBatch(qs []metric.Object, radius float64, opt QueryOptions) ([][]mtree.Match, error) {
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("shard: nil query object at batch index %d", i)
		}
	}
	if !(radius >= 0) {
		return nil, fmt.Errorf("shard: radius %g is negative or NaN", radius)
	}
	S := len(s.shards)
	out := make([][]mtree.Match, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	subsets := make([][]int, S)
	balls := s.balls()
	for qi, q := range qs {
		for i, lb := range s.lowerBounds(q, balls) {
			if lb > radius {
				s.skipped.Add(1)
				continue
			}
			subsets[i] = append(subsets[i], qi)
		}
	}
	results, errs, err := s.fanOut(qs, radius, 0, subsets, opt)
	if err != nil {
		return nil, err
	}
	for i := range results {
		for j, qi := range subsets[i] {
			out[qi] = append(out[qi], results[i][j]...)
		}
	}
	return out, firstError(errs)
}

// NNBatch answers a batch of k-NN queries in two pruning waves. Wave 1
// runs each query on the shards its lower bound cannot rank out a
// priori (all zero-bound shards, plus its closest shard so every query
// reaches at least one). The merged wave-1 results give each query a
// running k-th distance; wave 2 visits the deferred shards that still
// beat it. Because the k-th distance only shrinks as candidates
// accumulate, a shard pruned against the wave-1 bound is pruned against
// the final bound too — results are exact.
func (s *Set) NNBatch(qs []metric.Object, k int, opt QueryOptions) ([][]mtree.Match, error) {
	for i, q := range qs {
		if q == nil {
			return nil, fmt.Errorf("shard: nil query object at batch index %d", i)
		}
	}
	if k <= 0 {
		return nil, fmt.Errorf("shard: k = %d", k)
	}
	S := len(s.shards)
	out := make([][]mtree.Match, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	// Lower bounds per (query, shard); one pivot distance each.
	lb := make([][]float64, len(qs))
	balls := s.balls()
	for qi, q := range qs {
		lb[qi] = s.lowerBounds(q, balls)
	}
	// Wave 1: zero-bound shards, plus each query's minimum-bound shard.
	wave1 := make([][]int, S)
	inWave1 := make([][]bool, S)
	for i := range s.shards {
		inWave1[i] = make([]bool, len(qs))
	}
	for qi := range qs {
		minShard, minLB := 0, math.Inf(1)
		any := false
		for i := range s.shards {
			if lb[qi][i] == 0 {
				inWave1[i][qi] = true
				any = true
			} else if lb[qi][i] < minLB {
				minShard, minLB = i, lb[qi][i]
			}
		}
		if !any {
			inWave1[minShard][qi] = true
		}
	}
	for i := range s.shards {
		for qi := range qs {
			if inWave1[i][qi] {
				wave1[i] = append(wave1[i], qi)
			}
		}
	}
	errs1, err := s.runNNWave(qs, k, wave1, out, opt)
	if err != nil {
		return nil, err
	}
	// Wave 2: deferred shards that still beat the running k-th distance.
	wave2 := make([][]int, S)
	for i := range s.shards {
		for qi := range qs {
			if inWave1[i][qi] {
				continue
			}
			if len(out[qi]) == k && lb[qi][i] > out[qi][k-1].Distance {
				s.skipped.Add(1)
				continue
			}
			wave2[i] = append(wave2[i], qi)
		}
	}
	errs2, err := s.runNNWave(qs, k, wave2, out, opt)
	if err != nil {
		return nil, err
	}
	if e := firstError(errs1); e != nil {
		return out, e
	}
	return out, firstError(errs2)
}

// runNNWave fans one wave of per-shard NN batches out in parallel and
// merges each query's candidates in shard order.
func (s *Set) runNNWave(qs []metric.Object, k int, subsets [][]int, out [][]mtree.Match, opt QueryOptions) ([]error, error) {
	results, errs, err := s.fanOut(qs, 0, k, subsets, opt)
	if err != nil {
		return nil, err
	}
	for i := range results {
		for j, qi := range subsets[i] {
			out[qi] = MergeK(out[qi], results[i][j], k)
		}
	}
	return errs, nil
}

// initWrites builds the global-OID lookup from the shards' OID maps on
// the first write. Global OIDs handed out afterwards continue past the
// largest existing one and are never reused.
func (s *Set) initWrites() {
	if s.oidIndex != nil {
		return
	}
	s.oidIndex = make(map[uint64]oidLoc, s.Size())
	var next uint64
	for i, sh := range s.shards {
		for local, gid := range sh.OIDs {
			s.oidIndex[gid] = oidLoc{shard: i, local: uint64(local)}
			if gid >= next {
				next = gid + 1
			}
		}
	}
	s.nextGlobal = next
}

// Insert routes obj to a shard and returns its new global OID. Under
// Pivot assignment the nearest pivot wins, ties to the lower index — the
// rule assign built the shards by, and the invariant LowerBounds'
// hyperplane term rests on — and the shard's covering radius grows if
// obj lands outside it, which keeps the ball term valid. RoundRobin
// sets rotate by global OID. refit and err are Shard.Insert's: refit
// reports that the shard's model was refit. Writes follow the tree
// contract: not safe concurrent with queries or with each other.
func (s *Set) Insert(obj metric.Object) (gid uint64, refit bool, err error) {
	if obj == nil {
		return 0, false, errors.New("shard: nil object")
	}
	s.initWrites()
	best := int(s.nextGlobal % uint64(len(s.shards)))
	bestD := 0.0
	if s.shards[0].Pivot != nil {
		best, bestD = 0, math.Inf(1)
		for i, sh := range s.shards {
			s.pruneDists.Add(1)
			if d := s.space.Distance(obj, sh.Pivot); d < bestD {
				best, bestD = i, d
			}
		}
	}
	sh := s.shards[best]
	gid, local := s.nextGlobal, uint64(len(sh.OIDs))
	if refit, err = sh.Insert(obj, gid); err != nil && !refit {
		return 0, false, err
	}
	s.nextGlobal++
	s.oidIndex[gid] = oidLoc{shard: best, local: local}
	if sh.Pivot != nil && bestD > sh.Radius {
		sh.Radius = bestD
	}
	return gid, refit, err
}

// Delete removes the object stored under the global OID (see
// mtree.Tree.Delete for the identity check); refit and err are
// Shard.Delete's. The shard's covering radius is not tightened — it
// stays a valid, if looser, bound.
func (s *Set) Delete(obj metric.Object, oid uint64) (refit bool, err error) {
	s.initWrites()
	loc, ok := s.oidIndex[oid]
	if !ok {
		return false, mtree.ErrNotFound
	}
	if refit, err = s.shards[loc.shard].Delete(obj, loc.local); err != nil && !refit {
		return false, err
	}
	delete(s.oidIndex, oid)
	return refit, err
}

// EnableRecalibration attaches one recalibrator per shard, on the
// shard's stream out of cfg.Seed. At S = 1 its reservoir is primed from
// sample, the caller's objects; at S > 1 each shard primes from its own
// members. Predictions, admission prices, and the k-NN shard ordering
// switch to bias-corrected estimates, and every clean query execution
// feeds its trace back into the owning shard's window.
func (s *Set) EnableRecalibration(cfg recal.Config, sample []metric.Object) error {
	for i, sh := range s.shards {
		c := cfg
		c.Seed = s.opt.streams(i, cfg.Seed).recal
		prime := sh.Objects
		if len(s.shards) == 1 { // S = 1: primed from the caller's sample
			prime = sample
		}
		if err := sh.EnableRecalibration(c, prime); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// RecalStats aggregates the per-shard recalibrator states: counts sum,
// the window error is the worst shard's (admission should react to the
// weakest model), InBand requires every shard in band, and the bias
// vectors are unweighted means across enabled shards. ok is false when
// recalibration is not enabled.
func (s *Set) RecalStats() (recal.Stats, bool) {
	var out recal.Stats
	var biasN, biasD [][]float64
	enabled := 0
	out.InBand = true
	for _, sh := range s.shards {
		if sh.rc == nil {
			continue
		}
		st := sh.rc.Stats()
		enabled++
		out.Inserts += st.Inserts
		out.Deletes += st.Deletes
		out.BaseWeight += st.BaseWeight
		out.LiveSamples += st.LiveSamples
		out.ReservoirSize += st.ReservoirSize
		out.DriftAlarms += st.DriftAlarms
		out.WindowQueries += st.WindowQueries
		if st.WindowError > out.WindowError {
			out.WindowError = st.WindowError
		}
		out.InBand = out.InBand && st.InBand
		out.Band = st.Band
		biasN = append(biasN, st.BiasNodesPerLevel)
		biasD = append(biasD, st.BiasDistsPerLevel)
	}
	if enabled == 0 {
		return recal.Stats{}, false
	}
	out.BaseWeight /= float64(enabled)
	out.BiasNodesPerLevel = meanVectors(biasN)
	out.BiasDistsPerLevel = meanVectors(biasD)
	return out, true
}

// meanVectors averages ragged per-shard level vectors element-wise;
// shorter shards (shallower trees) simply contribute to fewer levels.
func meanVectors(vs [][]float64) []float64 {
	maxLen := 0
	for _, v := range vs {
		if len(v) > maxLen {
			maxLen = len(v)
		}
	}
	if maxLen == 0 {
		return nil
	}
	sum := make([]float64, maxLen)
	n := make([]int, maxLen)
	for _, v := range vs {
		for i, x := range v {
			sum[i] += x
			n[i]++
		}
	}
	for i := range sum {
		sum[i] /= float64(n[i])
	}
	return sum
}
