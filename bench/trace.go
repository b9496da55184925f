package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mcost"
	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/rescache"
	"mcost/internal/server"
)

// liveShareTraced is the share of --seconds a per-layer run spends on
// live traffic; the rest of its time goes to the in-process timings and
// the replay, which do not scale with --seconds.
const liveShareTraced = 0.5

// hopProbes is how many queries time the router's hop.
const hopProbes = 60

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the span that caused this one, -1 for a
// request's root.
type span struct {
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// Nodes and Dists are the work the call did, from mcost.QueryTrace,
	// on the spans that execute a query.
	Nodes int64 `json:"nodes,omitempty"`
	Dists int64 `json:"dists,omitempty"`
}

// recorder keeps spans in memory until the replay ends. A nil recorder
// records nothing, which is how the untraced replay runs the same code.
type recorder struct {
	epoch time.Time
	spans []span
}

func (rc *recorder) begin(req int, name string, parent int) int {
	if rc == nil {
		return -1
	}
	rc.spans = append(rc.spans, span{Req: req, Name: name, Parent: parent,
		StartUS: float64(time.Since(rc.epoch)) / float64(time.Microsecond)})
	return len(rc.spans) - 1
}

func (rc *recorder) end(id int) {
	if rc != nil {
		rc.spans[id].EndUS = float64(time.Since(rc.epoch)) / float64(time.Microsecond)
	}
}

// selfTimes returns each span's duration minus the part of it its
// child spans cover.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.EndUS - s.StartUS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndUS - s.StartUS
		}
	}
	return self
}

// replica is the in-process copy of a deployment the replay runs
// against: the facade index a node serves, or a cluster's shard nodes.
type replica struct {
	w     workload
	in    *inputs
	ix    *mcost.Index       // single-node workloads
	nodes []*mcost.ShardNode // cluster
	cache *rescache.Cache    // when the workload's server has one
	dec   server.ObjectDecoder
}

// buildReplica builds what the workload's servers build, with the same
// options, and reports how long that took.
func buildReplica(w workload, in *inputs) (*replica, time.Duration, error) {
	rp := &replica{w: w, in: in}
	opt := mcost.Options{Seed: w.dataSeed, Workers: 1, Arena: mcost.ArenaOptions{Enabled: true}}
	began := time.Now()
	var err error
	if w.shards > 1 {
		for i := 0; i < w.shards; i++ {
			node, err := mcost.BuildShardNode(in.space, in.objects, opt, mcost.ShardOptions{Shards: w.shards, Assign: mcost.ShardPivot}, i)
			if err != nil {
				return nil, 0, err
			}
			rp.nodes = append(rp.nodes, node)
		}
	} else {
		if rp.ix, err = mcost.Build(in.space, in.objects, opt); err != nil {
			return nil, 0, err
		}
		if err := rp.ix.SetEngineMode(mcost.EngineAuto); err != nil {
			return nil, 0, err
		}
	}
	took := time.Since(began)
	if w.writeShare > 0 {
		// A churn server's first write thaws the arena for good; its
		// reads then run on the node store. One insert and its delete
		// leave the replica in that state with the dataset unchanged.
		oid, err := rp.ix.Insert(in.fresh[0])
		if err != nil {
			return nil, 0, err
		}
		if err := rp.ix.Delete(in.fresh[0], oid); err != nil {
			return nil, 0, err
		}
	}
	if rp.dec, err = server.DecoderForSpace(in.space, in.objects[0]); err != nil {
		return nil, 0, err
	}
	return rp, took, nil
}

// replayTotals is what a replay adds up over its requests.
type replayTotals struct {
	predNodes, predDists float64
	actNodes, actDists   int64
	executed             int // requests that reached an engine
}

// wireQuery mirrors the request body the servers decode.
type wireQuery struct {
	Query  json.RawMessage `json:"query"`
	Radius *float64        `json:"radius"`
	K      *int            `json:"k"`
}

// replay runs the ops one after another through the calls a server
// makes for each — decode, price, cache probe, plan, execute, encode;
// for the cluster price, one execute per shard, merge, encode — with a
// span around every call. The result cache starts empty.
func (rp *replica) replay(ops []op, rc *recorder) (replayTotals, error) {
	var tot replayTotals
	ctx := context.Background()
	if rp.w.zipf > 0 {
		var err error
		if rp.cache, err = rescache.New(rescache.Config{Entries: 1024, Dist: rp.in.space.Distance}); err != nil {
			return tot, err
		}
	}
	for req, o := range ops {
		nn := o.kind == opNN
		body := rp.in.rangeBody[o.index]
		name := "range"
		if nn {
			body, name = rp.in.nnBody[o.index], "nn"
		}
		root := rc.begin(req, name, -1)

		id := rc.begin(req, "decode", root)
		var wq wireQuery
		if err := json.Unmarshal(body, &wq); err != nil {
			return tot, err
		}
		q, err := rp.dec(wq.Query)
		if err != nil {
			return tot, err
		}
		rc.end(id)

		id = rc.begin(req, "price", root)
		var est core.CostEstimate
		for _, n := range rp.nodes {
			var e core.CostEstimate
			if nn {
				e = n.PriceNN(nnK)
			} else {
				e = n.PriceRange(rp.w.radius)
			}
			est.Nodes += e.Nodes
			est.Dists += e.Dists
		}
		if rp.ix != nil {
			if nn {
				est = rp.ix.PriceNN(nnK)
			} else {
				est = rp.ix.PriceRange(rp.w.radius)
			}
		}
		rc.end(id)

		var matches []mtree.Match
		hit := false
		if rp.cache != nil {
			id = rc.begin(req, "cache", root)
			var pr rescache.Probe
			if nn {
				pr = rp.cache.GetNN(q, nnK, est)
			} else {
				pr = rp.cache.GetRange(q, rp.w.radius, est)
			}
			hit, matches = pr.Hit, pr.Matches
			rc.end(id)
		}
		if !hit {
			if matches, err = rp.execute(ctx, req, root, rc, q, nn, &tot); err != nil {
				return tot, err
			}
			tot.predNodes += est.Nodes
			tot.predDists += est.Dists
			tot.executed++
			if rp.cache != nil {
				id = rc.begin(req, "cache", root)
				if nn {
					rp.cache.PutNN(q, nnK, matches, est)
				} else {
					rp.cache.PutRange(q, rp.w.radius, matches, est)
				}
				rc.end(id)
			}
		}

		id = rc.begin(req, "encode", root)
		resp := server.QueryResponse{Matches: make([]server.MatchJSON, len(matches)), Cached: hit}
		for i, m := range matches {
			resp.Matches[i] = server.MatchJSON{OID: m.OID, Distance: m.Distance, Object: m.Object}
		}
		if _, err := json.Marshal(resp); err != nil {
			return tot, err
		}
		rc.end(id)
		rc.end(root)
	}
	return tot, nil
}

// execute plans and runs one query on the replica's engine.
func (rp *replica) execute(ctx context.Context, req, root int, rc *recorder, q metric.Object, nn bool, tot *replayTotals) ([]mtree.Match, error) {
	run := func(name string, eng server.Engine) ([]mtree.Match, error) {
		id := rc.begin(req, name, root)
		tr := mcost.NewQueryTrace()
		var sets [][]mtree.Match
		var err error
		if nn {
			sets, err = eng.NNBatchTraced(ctx, []metric.Object{q}, nnK, mcost.QueryBudget{}, tr)
		} else {
			sets, err = eng.RangeBatchTraced(ctx, []metric.Object{q}, rp.w.radius, mcost.QueryBudget{}, tr)
		}
		rc.end(id)
		if err != nil {
			return nil, err
		}
		tot.actNodes += tr.TotalNodes()
		tot.actDists += tr.TotalDists()
		if rc != nil {
			rc.spans[id].Nodes, rc.spans[id].Dists = tr.TotalNodes(), tr.TotalDists()
		}
		return sets[0], nil
	}
	if rp.ix != nil {
		id := rc.begin(req, "plan", root)
		var err error
		if nn {
			_, err = rp.ix.PlanNN(nnK)
		} else {
			_, err = rp.ix.PlanRange(rp.w.radius)
		}
		rc.end(id)
		if err != nil {
			return nil, err
		}
		return run("exec", rp.ix)
	}
	var all []mtree.Match
	for i, n := range rp.nodes {
		part, err := run(fmt.Sprintf("shard_%d", i), n)
		if err != nil {
			return nil, err
		}
		all = append(all, part...)
	}
	// The router's merge: canonical (distance, OID) order, cut to k.
	id := rc.begin(req, "merge", root)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].OID < all[j].OID
	})
	if nn && len(all) > nnK {
		all = all[:nnK]
	}
	rc.end(id)
	return all, nil
}

// stageNames are the spans a replay records under each request.
var stageNames = []string{"decode", "price", "cache", "plan", "exec", "shard_0", "shard_1", "shard_2", "merge", "encode"}

// perLayer measures the per-layer metrics of one workload: live
// counters and latencies from a short run against real servers, the
// in-process timings of layers.go, and the traced replay.
func (e *env) perLayer(ctx context.Context, w workload, seed int64, seconds float64) (*runResult, error) {
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	r := &runResult{Workload: w.name, Seed: seed, Seconds: seconds,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}}

	dataFile, err := e.writeDataset(w, in)
	if err != nil {
		return nil, err
	}
	live, err := e.runLive(ctx, w, in, dataFile, seed, seconds*liveShareTraced, tracedPhases, hopProbes)
	if err != nil {
		return nil, err
	}
	r.OracleChecked = live.oracleChecked
	r.noteFailures(live.closed)
	r.noteFailures(live.open.results)
	liveMetrics(r, live)

	lb := &layerBench{w: w, in: in, r: r}
	lb.run()

	rp, built, err := buildReplica(w, in)
	if err != nil {
		return nil, err
	}
	r.set("facade.build_ms", "ms", float64(built)/float64(time.Millisecond), 1)

	// The replayed sample: the first traceSample reads of a stream of
	// its own. Writes are left out; the churn replica is already thawed.
	var ops []op
	for stream := newOpStream(w, seed, 99); len(ops) < traceSample; {
		if o := stream.next(); o.kind == opRange || o.kind == opNN {
			ops = append(ops, o)
		}
	}
	// Three passes over the same ops: one to warm caches and heap, one
	// with recording off, one with it on.
	if _, err := rp.replay(ops, nil); err != nil {
		return nil, err
	}
	began := time.Now()
	if _, err := rp.replay(ops, nil); err != nil {
		return nil, err
	}
	untraced := time.Since(began)
	rc := &recorder{epoch: time.Now(), spans: make([]span, 0, 12*len(ops))}
	began = time.Now()
	tot, err := rp.replay(ops, rc)
	if err != nil {
		return nil, err
	}
	traced := time.Since(began)
	r.Attempted += len(ops)
	r.set("trace.overhead_pct", "%", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), len(ops))
	r.set("pred_err_nodes", "ratio", math.Abs(tot.predNodes-float64(tot.actNodes))/float64(tot.actNodes), tot.executed)
	r.set("pred_err_dists", "ratio", math.Abs(tot.predDists-float64(tot.actDists))/float64(tot.actDists), tot.executed)
	stageMetrics(r, rc.spans, live)
	if err := writeTrace(filepath.Join(e.out, w.name+".trace.json"), rc.spans); err != nil {
		return nil, err
	}

	if rp.ix != nil {
		lb.recalLayer(rp.ix)
	} else {
		ix, err := mcost.Build(in.space, in.objects, mcost.Options{Seed: w.dataSeed, Workers: 1})
		if err != nil {
			return nil, err
		}
		lb.recalLayer(ix)
	}
	r.Correct = r.Failed == 0 && r.OracleChecked > 0
	return r, nil
}

// liveMetrics reports the layer metrics only running servers can give:
// cache hit rate, batcher queueing, what the router did per query, and
// how the generator itself behaved.
func liveMetrics(r *runResult, live *liveReport) {
	values, samples := clientMetrics(live.closed, live.closedWindow, live.open.results)
	for _, name := range tailMetrics {
		r.set(name, "ms", orZero(values[name]), samples[name])
	}

	var hits, misses int64
	for _, c := range live.counters {
		hits += c["server.cache_hits"]
		misses += c["server.cache_misses"]
	}
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	r.set("rescache.hit_rate", "ratio", hitRate, int(hits+misses))

	var queued, sizes []float64
	for i := range live.closed {
		if c := &live.closed[i]; c.failure == "" && c.op.kind <= opNN && !c.cached {
			queued = append(queued, c.queuedMS)
			sizes = append(sizes, float64(c.batchSize))
		}
	}
	r.set("server.queue_ms_p50", "ms", orZero(median(queued)), len(queued))
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	r.set("server.batch_size_mean", "count", orZero(sum/float64(len(sizes))), len(sizes))

	// The router is the last process of a cluster deployment; on a
	// single node these counters do not exist and read zero.
	rt := live.counters[len(live.counters)-1]
	perQ := func(name string) float64 {
		if rt["router.requests"] == 0 {
			return 0
		}
		return float64(rt[name]) / float64(rt["router.requests"])
	}
	n := int(rt["router.requests"])
	r.set("router.shard_calls_per_q", "count", perQ("router.shard_calls"), n)
	r.set("router.shards_skipped_per_q", "count", perQ("router.shards_skipped"), n)
	r.set("router.retries", "count", float64(rt["router.retries"]), n)
	r.set("router.hedges", "count", float64(rt["router.hedges"]), n)
	r.set("router.hop_us", "us", orZero(median(live.hopUS)), len(live.hopUS))

	r.set("gen.late_ms_p99", "ms", orZero(percentile(live.open.lateMS, 99)), len(live.open.lateMS))
	r.set("gen.cpu_share", "ratio", live.genCPUShare, 1)
}

// orZero reports a statistic of an empty sample as 0: a layer the
// workload does not have did no work.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// stageMetrics reports the mean self time of every stage per request,
// for range and for k-NN requests, and stage.http_*: the live
// closed-loop median minus the stages' sum — what the replay cannot
// see (HTTP, scheduling, locks, the batch window). Stage times plus
// stage.http add up to the live median by construction.
func stageMetrics(r *runResult, spans []span, live *liveReport) {
	self := selfTimes(spans)
	kindOf := map[int]string{}
	for _, s := range spans {
		if s.Parent < 0 {
			kindOf[s.Req] = s.Name
		}
	}
	for _, kind := range []string{"range", "nn"} {
		requests := 0
		sum := map[string]float64{}
		for i, s := range spans {
			if kindOf[s.Req] != kind {
				continue
			}
			if s.Parent < 0 {
				requests++
				sum["other"] += self[i]
				continue
			}
			sum[s.Name] += self[i]
		}
		var total float64
		for _, stage := range append([]string{"other"}, stageNames...) {
			mean := 0.0
			if requests > 0 {
				mean = sum[stage] / float64(requests)
			}
			total += mean
			r.set("stage."+stage+"_"+kind+"_us", "us", mean, requests)
		}
		op := opRange
		if kind == "nn" {
			op = opNN
		}
		lat := latencies(live.closed, op)
		r.set("stage.http_"+kind+"_us", "us", orZero(median(lat))*1e3-total, len(lat))
	}
}

// writeTrace stores the replay's spans; README.md says how to read them.
func writeTrace(path string, spans []span) error {
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
