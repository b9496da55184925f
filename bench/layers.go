package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"mcost"
	"mcost/internal/advisor"
	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/pager"
	"mcost/internal/recal"
	"mcost/internal/rescache"
	"mcost/internal/server"
	"mcost/internal/shard"
)

// The per-layer metrics time each package's public calls from outside,
// in this process, on the run's own dataset and queries. No file of the
// packages changes; spans and counters inside them are a later change.

// Timing budget of one micro-metric: timedBatches batches of about
// batchBudget each, the median batch reported.
const (
	timedBatches = 5
	batchBudget  = 4 * time.Millisecond
)

const pageSize = 4096 // the servers' default node size

// timeOp reports the median over timedBatches batches of fn's mean time
// per call, in nanoseconds. fn receives a call counter to vary its
// input. The batch size is doubled until a batch fills batchBudget; the
// sizing batches also warm caches and are not reported.
func timeOp(fn func(i int)) float64 {
	call := 0
	batch := func(iters int) time.Duration {
		began := time.Now()
		for i := 0; i < iters; i++ {
			fn(call)
			call++
		}
		return time.Since(began)
	}
	iters := 1
	for batch(iters) < batchBudget && iters < 1<<24 {
		iters *= 2
	}
	per := make([]float64, timedBatches)
	for b := range per {
		per[b] = float64(batch(iters)) / float64(iters)
	}
	return median(per)
}

// allocsPerOp reports heap allocations per call of fn.
func allocsPerOp(fn func(i int)) float64 {
	const runs = 200
	fn(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// layerBench holds what the layer timings share: the run's inputs and
// the index parts built from them in mcost.Build's order.
type layerBench struct {
	w  workload
	in *inputs
	r  *runResult

	tree    *mtree.Tree
	scan    *mtree.Scan
	f       *histogram.Histogram
	model   *core.MTreeModel
	profile advisor.Profile
}

func (lb *layerBench) ns(name string, fn func(i int)) float64 {
	v := timeOp(fn)
	lb.r.set(name, "ns", v, timedBatches)
	return v
}

func (lb *layerBench) us(name string, fn func(i int)) float64 {
	v := timeOp(fn) / 1e3
	lb.r.set(name, "us", v, timedBatches)
	return v
}

// once times a build-stage call that takes from milliseconds to
// seconds. It is timed a single time: five repeats of the profile stage
// alone would outlast the run.
func (lb *layerBench) once(name string, fn func()) {
	began := time.Now()
	fn()
	lb.r.set(name, "ms", float64(time.Since(began))/float64(time.Millisecond), 1)
}

func (lb *layerBench) query(i int) metric.Object { return lb.in.pool[i%len(lb.in.pool)] }

// run measures every in-process layer metric but recal's, which needs
// a facade index (see recalLayer).
func (lb *layerBench) run() {
	lb.metricLayer()
	lb.buildStages()
	lb.mtreeLayer()
	lb.coreAndAdvisor()
	lb.rescacheLayer()
	lb.serverLayer()
	lb.shardLayer()
}

// metricLayer times the distance functions alone: the canonical ones
// every engine calls through metric.Space, and the slab/SWAR/prefix
// kernels the arena substitutes for them.
func (lb *layerBench) metricLayer() {
	rng := rand.New(rand.NewSource(lb.w.dataSeed))
	vecs := func(dim int) []metric.Vector {
		out := make([]metric.Vector, 64)
		for i := range out {
			out[i] = make(metric.Vector, dim)
			for j := range out[i] {
				out[i][j] = rng.Float64()
			}
		}
		return out
	}
	var sink float64
	v16, v64 := vecs(16), vecs(64)
	lb.ns("metric.l2_d16_ns", func(i int) { sink += metric.L2(v16[i&63], v16[(i+1)&63]) })
	lb.ns("metric.l2_d64_ns", func(i int) { sink += metric.L2(v64[i&63], v64[(i+1)&63]) })
	kernel := metric.VecKernelFor("L2")
	lb.ns("metric.l2_d64_kernel_ns", func(i int) { sink += kernel(v64[i&63], v64[(i+1)&63]) })

	bits := dataset.HDC(16, 10_000, lb.w.dataSeed).Objects
	ham := metric.HammingSpace(10_000)
	lb.ns("metric.hamming_10k_ns", func(i int) { sink += ham.Distance(bits[i&15], bits[(i+1)&15]) })
	swar := metric.Accelerate(ham)
	lb.ns("metric.hamming_10k_swar_ns", func(i int) { sink += swar.Distance(bits[i&15], bits[(i+1)&15]) })

	words := dataset.Words(64, lb.w.dataSeed).Objects
	lb.ns("metric.lev_ns", func(i int) { sink += metric.Levenshtein(words[i&63], words[(i+1)&63]) })
	prefix := metric.NewPrefixLev(words[0].(string))
	lb.ns("metric.prefixlev_ns", func(i int) { sink += float64(prefix.Dist(words[(i+1)&63].(string))) })
	_ = sink
}

// buildStages calls the layers in the order mcost.Build does — bulk
// load, tree statistics, distance distribution, model fit, scan engine,
// hardness profile, arena freeze — timing each, so that the parts of
// facade.build_ms (measured around mcost.Build itself by the traced
// replay) and of setup_s have names.
func (lb *layerBench) buildStages() {
	objs := lb.in.objects
	var err error
	lb.once("mtree.bulkload_ms", func() {
		lb.tree, err = mtree.New(mtree.Options{Space: lb.in.space, PageSize: pageSize, Seed: lb.w.dataSeed})
		must(err)
		must(lb.tree.BulkLoad(objs))
	})
	var stats *mtree.Stats
	lb.once("distdist.estimate_ms", func() {
		lb.f, err = distdist.Estimate(lb.in.dataset(lb.w.name), distdist.Options{Seed: lb.w.dataSeed + 1, Workers: 1})
		must(err)
	})
	lb.once("core.model_fit_ms", func() {
		stats, err = lb.tree.CollectStats()
		must(err)
		lb.model, err = core.NewMTreeModel(lb.f, stats)
		must(err)
	})
	lb.scan, err = mtree.NewScan(lb.in.space, objs, pageSize)
	must(err)
	lb.once("advisor.profile_ms", func() {
		lb.profile = advisor.ComputeProfile(lb.f, lb.scan.Size(), lb.scan.Pages(), lb.in.space.Bound, advisor.ModelPredictor{Model: lb.model})
	})
	lb.once("mtree.freeze_ms", func() { must(lb.tree.FreezeArena(mtree.ArenaConfig{})) })
}

// mtreeLayer times one range and one k-NN query on every engine over
// the same tree: the frozen arena, the in-memory node store, a paged
// store, and the linear scan; plus the exact work a query does and what
// a write costs.
func (lb *layerBench) mtreeLayer() {
	r, opt := lb.w.radius, mtree.QueryOptions{UseParentDist: true}
	arena := lb.tree.Arena()
	dst := make([]mtree.Match, 0, 256)
	arenaRange := func(i int) { dst, _ = arena.RangeAppend(dst[:0], lb.query(i), r, opt) }
	arenaNN := func(i int) { dst, _ = arena.NNAppend(dst[:0], lb.query(i), nnK, opt) }
	rangeUS := lb.us("mtree.arena_range_us", arenaRange)
	lb.us("mtree.arena_nn_us", arenaNN)
	lb.r.set("mtree.arena_range_allocs", "count", allocsPerOp(arenaRange), 200)
	lb.r.set("mtree.arena_nn_allocs", "count", allocsPerOp(arenaNN), 200)

	batch := make([]metric.Object, 32)
	lb.r.set("mtree.batch32_range_us", "us", timeOp(func(i int) {
		for j := range batch {
			batch[j] = lb.query(i*32 + j)
		}
		_, err := lb.tree.RangeBatch(batch, r, opt)
		must(err)
	})/1e3/32, timedBatches)

	// The traversal's work over the first 256 pool queries, counted by
	// the trace hooks: a function of the tree and the queries alone.
	const counted = 256
	tr := obs.NewTrace()
	for i := 0; i < counted; i++ {
		_, err := lb.tree.Range(lb.query(i), r, mtree.QueryOptions{UseParentDist: true, Trace: tr})
		must(err)
	}
	nodes := float64(tr.TotalNodes()) / counted
	lb.r.set("mtree.nodes_per_q", "count", nodes, counted)
	lb.r.set("mtree.dists_per_q", "count", float64(tr.TotalDists())/counted, counted)
	lb.r.set("mtree.ns_per_node_visit", "ns", rangeUS*1e3/nodes, timedBatches)

	lb.us("mtree.scan_range_us", func(i int) { _, err := lb.scan.Range(lb.query(i), r, mtree.QueryOptions{}); must(err) })
	lb.us("mtree.scan_nn_us", func(i int) { _, err := lb.scan.NN(lb.query(i), nnK, mtree.QueryOptions{}); must(err) })

	paged := lb.pagedTree()
	lb.us("mtree.paged_range_us", func(i int) { _, err := paged.Range(lb.query(i), r, opt); must(err) })

	// Thawed, the same tree answers from the node store, as a server
	// does after its first write.
	lb.tree.ThawArena()
	lb.us("mtree.store_range_us", func(i int) { _, err := lb.tree.Range(lb.query(i), r, opt); must(err) })
	lb.us("mtree.store_nn_us", func(i int) { _, err := lb.tree.NN(lb.query(i), nnK, opt); must(err) })

	// Writes: insert fresh objects, then delete the same ones. Both are
	// timed per call because each call changes the tree.
	fresh := lb.in.fresh[:200]
	first := lb.tree.NextOID()
	ins, del := make([]float64, len(fresh)), make([]float64, len(fresh))
	for i, o := range fresh {
		began := time.Now()
		must(lb.tree.Insert(o))
		ins[i] = float64(time.Since(began)) / float64(time.Microsecond)
	}
	for i, o := range fresh {
		began := time.Now()
		must(lb.tree.Delete(o, first+uint64(i)))
		del[i] = float64(time.Since(began)) / float64(time.Microsecond)
	}
	lb.r.set("mtree.insert_us", "us", median(ins), len(ins))
	lb.r.set("mtree.delete_us", "us", median(del), len(del))
}

// pagedTree bulk-loads the dataset onto the checksummed page stack
// mcost.Build mounts with StorageOptions.Paged.
func (lb *layerBench) pagedTree() *mtree.Tree {
	codec, err := mtree.CodecFor(lb.in.objects[0])
	must(err)
	stack, err := pager.NewMemStack(pager.StackOptions{PageSize: mtree.PhysPageSize(pageSize)})
	must(err)
	t, err := mtree.New(mtree.Options{Space: lb.in.space, PageSize: pageSize, Seed: lb.w.dataSeed, Pager: stack.Top, Codec: codec})
	must(err)
	must(t.BulkLoad(lb.in.objects))
	return t
}

// coreAndAdvisor times pricing and planning one query: the calls a
// server makes several times per request.
func (lb *layerBench) coreAndAdvisor() {
	var sink core.CostEstimate
	lb.us("core.price_range_us", func(int) { sink = lb.model.RangeL(lb.w.radius) })
	lb.us("core.price_nn_k1_us", func(int) { sink = lb.model.NNL(1) })
	lb.us("core.price_nn_k10_us", func(int) { sink = lb.model.NNL(nnK) })
	_ = sink
	pred := advisor.ModelPredictor{Model: lb.model}
	lb.us("advisor.plan_range_us", func(int) {
		_, err := advisor.Plan(pred, lb.profile, advisor.Query{Kind: advisor.KindRange, Radius: lb.w.radius})
		must(err)
	})
	lb.us("advisor.plan_nn_k10_us", func(int) {
		_, err := advisor.Plan(pred, lb.profile, advisor.Query{Kind: advisor.KindNN, K: nnK})
		must(err)
	})
}

// rescacheLayer times the result cache alone: a probe that hits (the
// exact query was cached), a probe that misses (nothing near it was),
// and an insertion, on a cache of the zipf-cache workload's size.
func (lb *layerBench) rescacheLayer() {
	cache, err := rescache.New(rescache.Config{Entries: 1024, Dist: lb.in.space.Distance})
	must(err)
	est := lb.model.RangeL(lb.w.radius)
	const cached = 512
	sets := make([][]mtree.Match, cached)
	for i := range sets {
		sets[i], err = lb.scan.Range(lb.query(i), lb.w.radius, mtree.QueryOptions{})
		must(err)
	}
	lb.us("rescache.put_us", func(i int) { cache.PutRange(lb.query(i%cached), lb.w.radius, sets[i%cached], est) })
	var dists, gets int
	lb.us("rescache.get_hit_us", func(i int) {
		p := cache.GetRange(lb.query(i%cached), lb.w.radius, est)
		dists += p.Dists
		gets++
	})
	lb.us("rescache.get_miss_us", func(i int) {
		p := cache.GetRange(lb.query(cached+i%cached), lb.w.radius, est)
		dists += p.Dists
		gets++
	})
	lb.r.set("rescache.probe_dists_per_get", "count", float64(dists)/float64(gets), gets)
}

// stubEngine answers instantly with a canned result set, so that what
// remains of a request's time is the server layer's own.
type stubEngine struct {
	matches []mtree.Match
	est     core.CostEstimate
}

func (s *stubEngine) PriceRange(float64) core.CostEstimate { return s.est }
func (s *stubEngine) PriceNN(int) core.CostEstimate        { return s.est }
func (s *stubEngine) sets(n int) [][]mtree.Match {
	out := make([][]mtree.Match, n)
	for i := range out {
		out[i] = s.matches
	}
	return out
}
func (s *stubEngine) RangeBatchTraced(_ context.Context, qs []metric.Object, _ float64, _ budget.Budget, _ *obs.Trace) ([][]mtree.Match, error) {
	return s.sets(len(qs)), nil
}
func (s *stubEngine) NNBatchTraced(_ context.Context, qs []metric.Object, _ int, _ budget.Budget, _ *obs.Trace) ([][]mtree.Match, error) {
	return s.sets(len(qs)), nil
}
func (s *stubEngine) Size() int     { return 1 << 20 }
func (s *stubEngine) NumNodes() int { return 1 }
func (s *stubEngine) Height() int   { return 1 }
func (s *stubEngine) PageSize() int { return pageSize }

// serverLayer times the serving layer's own work: decoding a query,
// encoding an answer, a whole request through Handler().ServeHTTP with
// an engine that costs nothing, one admission decision, and what the
// micro-batcher's window adds at one and at 32 concurrent callers.
func (lb *layerBench) serverLayer() {
	decode, err := server.DecoderForSpace(lb.in.space, lb.in.objects[0])
	must(err)
	raws := make([]json.RawMessage, 64)
	for i := range raws {
		raws[i], err = json.Marshal(lb.query(i))
		must(err)
	}
	lb.us("server.decode_us", func(i int) { _, err := decode(raws[i&63]); must(err) })

	ten, err := lb.scan.NN(lb.query(0), nnK, mtree.QueryOptions{})
	must(err)
	resp := server.QueryResponse{Matches: make([]server.MatchJSON, len(ten))}
	for i, m := range ten {
		resp.Matches[i] = server.MatchJSON{OID: m.OID, Distance: m.Distance, Object: m.Object}
	}
	lb.r.set("server.encode_us_per_match", "us", timeOp(func(int) { _, err := json.Marshal(resp); must(err) })/1e3/nnK, timedBatches)

	stub := &stubEngine{matches: ten, est: core.CostEstimate{Nodes: 10, Dists: 100}}
	newServer := func(batch server.BatchConfig) *server.Server {
		srv, err := server.New(server.Config{Engine: stub, Decode: decode, Batch: batch, BudgetSlack: -1})
		must(err)
		return srv
	}
	call := func(h http.Handler, i int) server.QueryResponse {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/range", bytes.NewReader(lb.in.rangeBody[i%poolSize])))
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("in-process /v1/range: status %d: %s", rec.Code, rec.Body))
		}
		var out server.QueryResponse
		must(json.Unmarshal(rec.Body.Bytes(), &out))
		return out
	}
	plain := newServer(server.BatchConfig{})
	handler := plain.Handler()
	lb.us("server.handler_range_us", func(i int) { call(handler, i) })
	plain.Close()

	adm := server.NewAdmitter(server.AdmitConfig{NodeReadsPerSec: 1e12, DistCalcsPerSec: 1e12}, nil)
	lb.ns("server.admit_ns", func(int) { adm.Admit(stub.est) })

	// With a 1ms window a lone caller waits the window out; 32 callers
	// fill a batch and leave at once. queued_ms in each answer is the
	// batcher's own account of the wait.
	batched := newServer(server.BatchConfig{Window: time.Millisecond})
	defer batched.Close()
	bh := batched.Handler()
	waits := func(callers, rounds int) (waitUS []float64) {
		for round := 0; round < rounds; round++ {
			got := make([]server.QueryResponse, callers)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					got[c] = call(bh, round*callers+c)
				}(c)
			}
			wg.Wait()
			for _, g := range got {
				waitUS = append(waitUS, g.QueuedMS*1e3)
			}
		}
		return waitUS
	}
	w1 := waits(1, 20)
	lb.r.set("server.batcher_wait_us_c1", "us", median(w1), len(w1))
	w32 := waits(32, 5)
	lb.r.set("server.batcher_wait_us_c32", "us", median(w32), len(w32))
}

// shardLayer times a query on an in-process three-shard set: the
// scatter-gather without the network, the base the router's hop is
// compared with.
func (lb *layerBench) shardLayer() {
	set, err := shard.Build(lb.in.space, lb.in.objects, shard.Options{
		Shards: 3, Assign: shard.Pivot, PageSize: pageSize, Seed: lb.w.dataSeed, Workers: 1, Arena: &mtree.ArenaConfig{},
	})
	must(err)
	opt := shard.QueryOptions{UseParentDist: true}
	calls := 0
	lb.us("shard.range_us", func(i int) { _, err := set.Range(lb.query(i), lb.w.radius, opt); must(err); calls++ })
	lb.r.set("shard.skipped_per_q", "count", float64(set.ShardsSkipped())/float64(calls), calls)
	lb.us("shard.nn_us", func(i int) { _, err := set.NN(lb.query(i), nnK, opt); must(err) })
}

// recalLayer puts a number on the stall the churn workload leaves out:
// with recalibration on, every RefreshEvery-th write refits the model
// and recomputes the hardness profile under the write lock. ix is an
// index nothing else needs any more.
func (lb *layerBench) recalLayer(ix *mcost.Index) {
	cfg := recal.Config{Seed: lb.w.dataSeed}
	must(ix.EnableRecalibration(cfg, lb.in.objects))
	fresh := lb.in.fresh[:cfg.Effective().RefreshEvery]
	var slowest time.Duration
	for _, o := range fresh {
		began := time.Now()
		_, err := ix.Insert(o)
		must(err)
		slowest = max(slowest, time.Since(began))
	}
	lb.r.set("recal.refresh_ms", "ms", float64(slowest)/float64(time.Millisecond), 1)
}
