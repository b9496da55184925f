// Command mcost-query builds an M-tree over a generated or loaded
// dataset, runs a similarity query, and prints the results alongside the
// cost model's predictions and the actually measured costs — a direct
// demonstration of the paper's claim that costs are predictable from the
// distance distribution alone.
//
// Usage:
//
//	mcost-query -dataset words -n 10000 -query tempesta -nn 10
//	mcost-query -dataset clustered -dim 10 -qvec 0.5,0.5,... -range 0.2
//	mcost-query -file vocab.ds -query castello -range 3
//
// Every query runs through the Index's serving surface — priced,
// planned, budgeted and executed as mcost-serve would — so -shards,
// -batch, -engine, -budget-slack, -trace and -explain all compose on the
// one path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the default mux
	"os"
	"sort"
	"strconv"
	"strings"

	"mcost"
	"mcost/internal/budget"
	"mcost/internal/cliutil"
	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/obs"
	"mcost/internal/rescache"
)

func main() {
	fs := flag.CommandLine
	var (
		df  = cliutil.RegisterDataset(fs, "words", 10_000, 10)
		tf  = cliutil.RegisterTree(fs, 1, true)
		shf = cliutil.RegisterShards(fs, 1, "pivot", 1)
		stf = cliutil.RegisterStorage(fs)
		bf  = cliutil.RegisterBudget(fs, true)
		cf  = cliutil.RegisterCache(fs, 0)
		rf  = cliutil.RegisterRecal(fs, true)
		ef  = cliutil.RegisterEngine(fs, "tree")

		queryStr = flag.String("query", "", "query word (string datasets)")
		queryVec = flag.String("qvec", "", "query vector, comma-separated (vector datasets)")
		radius   = flag.Float64("range", -1, "range query radius")
		k        = flag.Int("nn", 0, "k for a k-NN query")
		show     = flag.Int("show", 10, "max results to print")
		explain  = flag.Bool("explain", false, "print a per-level prediction-vs-measurement breakdown (range queries)")
		trace    = flag.Bool("trace", false, "print the query's per-level trace (node visits, distance computations, pruning by lemma) as JSON")
		mOut     = flag.String("metrics-out", "", "write the process metrics snapshot and query trace as JSON to FILE")
		dbgAddr  = flag.String("debug-addr", "", "serve net/http/pprof and expvar (including the metrics registry at /debug/vars) on this address, e.g. localhost:6060; blocks after the query so the endpoint stays up")
	)
	flag.Parse()

	if err := tf.ValidateLayout(); err != nil {
		fail(err)
	}
	reg := mcost.NewMetricsRegistry()
	if *dbgAddr != "" {
		reg.PublishExpvar("mcost")
		go func() {
			if err := http.ListenAndServe(*dbgAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mcost-query: debug server:", err)
			}
		}()
		fmt.Printf("debug server on http://%s/debug/pprof/ and /debug/vars\n", *dbgAddr)
	}

	d, err := df.Load(tf.Seed)
	if err != nil {
		fail(err)
	}
	q, err := parseQuery(d, *queryStr, *queryVec)
	if err != nil {
		fail(err)
	}
	isRange := *radius >= 0
	if !isRange && *k <= 0 {
		fail(fmt.Errorf("specify -range R or -nn K"))
	}
	if *explain && shf.Shards > 1 {
		fail(fmt.Errorf("-explain breaks down a query on a single M-tree (drop -shards)"))
	}

	what := "M-tree"
	if shf.Shards > 1 {
		what = fmt.Sprintf("%d-shard M-tree (%s assignment)", shf.Shards, shf.Assign)
	}
	fmt.Printf("building %s over %s (n=%d, node size %d B)...\n", what, d.Name, d.N(), tf.PageSize)
	storage := stf.Options(reg)
	eng, err := cliutil.Build(d, tf.Options(storage), shf)
	if err != nil {
		fail(err)
	}
	fmt.Printf("tree: %d nodes, height %d", eng.NumNodes(), eng.Height())
	if shf.Shards > 1 {
		fmt.Printf(", shards of %v objects", eng.ShardSizes())
	}
	if storage.Paged {
		fmt.Printf(" (paged, checksummed%s)", map[bool]string{true: ", fault injection armed", false: ""}[storage.Faults != nil])
	}
	fmt.Printf("\n\n")
	if storage.Faults != nil {
		eng.SetFaultsEnabled(true) // build is clean; faults target the query phase
	}
	if err := rf.Apply(eng, d, tf.Seed); err != nil {
		fail(err)
	}
	if err := ef.Apply(eng); err != nil {
		fail(err)
	}

	// -batch pads the query with dataset objects so the batched traversal
	// has company to amortize node reads against; only the first query's
	// results are printed.
	queries := []mcost.Object{q}
	for i := 0; i < shf.Batch-1 && i < len(d.Objects); i++ {
		queries = append(queries, d.Objects[i])
	}

	hard := eng.Hardness()
	fmt.Printf("hardness: intrinsic dim %.2f, concentration %.4f, crossover radius %g, crossover k %d\n",
		hard.Hardness(), hard.Concentration, hard.CrossoverRadius, hard.CrossoverK)
	var (
		plan  mcost.PlanDecision
		pred  mcost.CostEstimate
		label string
	)
	if isRange {
		plan, err = eng.PlanRange(*radius)
		pred, label = eng.PriceRange(*radius), fmt.Sprintf("range(Q, %g)", *radius)
	} else {
		plan, err = eng.PlanNN(*k)
		pred, label = eng.PriceNN(*k), fmt.Sprintf("NN(Q, %d)", *k)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("plan: %s\n", plan.Reason)
	fmt.Printf("%s x %d queries, engine mode %s: priced at %.1f node reads, %.1f distance computations per query\n",
		label, len(queries), eng.EngineMode(), pred.Nodes, pred.Dists)

	var qb mcost.QueryBudget
	if bf.Slack > 0 {
		qb = budget.FromPrediction(pred.Nodes, pred.Dists, bf.Slack, eng.Height())
		fmt.Printf("budget: %d node reads, %d distance computations (prediction x %.1f, at least the tree height)\n",
			qb.MaxNodeReads, qb.MaxDistCalcs, bf.Slack)
	}
	ctx := context.Background()
	if bf.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, bf.Timeout)
		defer cancel()
	}
	var qtr *mcost.QueryTrace
	if *trace || *mOut != "" || *dbgAddr != "" {
		qtr = mcost.NewQueryTrace()
	}

	eng.ResetCosts()
	var sets [][]mcost.Match
	if isRange {
		sets, err = eng.RangeBatchTraced(ctx, queries, *radius, qb, qtr)
	} else {
		sets, err = eng.NNBatchTraced(ctx, queries, *k, qb, qtr)
	}
	switch {
	case err == nil:
	case errors.Is(err, mcost.ErrBudgetExceeded),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		fmt.Printf("DEGRADED: %v — returning the partial result set\n", err)
	default:
		fail(err)
	}
	nodes, dists := eng.Costs()
	fmt.Printf("measured: %d node reads, %d distance computations", nodes, dists)
	if nq := float64(len(queries)); nq > 1 {
		fmt.Printf(" (%.1f / %.1f per query, amortized over the batch)", float64(nodes)/nq, float64(dists)/nq)
	}
	if shf.Shards > 1 {
		fmt.Printf(", %d shard visits pruned", eng.ShardsSkipped())
	}
	fmt.Println()
	if storage.Faults != nil {
		fs := eng.FaultStats()
		fmt.Printf("faults injected: %d read errors, %d write errors, %d torn writes, %d corrupt reads\n",
			fs.ReadErrors, fs.WriteErrors, fs.TornWrites, fs.CorruptReads)
	}
	var matches []mcost.Match
	if len(sets) > 0 {
		matches = sets[0]
	}
	if cf.Enabled() && err == nil {
		cacheDemo(cf, d.Space, q, *radius, *k, matches, pred)
	}
	fmt.Println()

	if *explain && isRange {
		if err := printExplain(eng, q, *radius); err != nil {
			fail(err)
		}
	}
	if qtr != nil {
		recordMetrics(reg, qtr, matches, d.Space.Bound)
	}
	if *trace {
		out, err := json.MarshalIndent(qtr, "", "  ")
		if err != nil {
			fail(err)
		}
		fmt.Printf("query trace:\n%s\n\n", out)
	}
	if *mOut != "" {
		if err := writeMetrics(*mOut, reg, qtr); err != nil {
			fail(err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *mOut)
	}

	printResults(matches, *show)
	if *dbgAddr != "" {
		fmt.Printf("\nquery done; debug server still serving on http://%s — Ctrl-C to exit\n", *dbgAddr)
		select {}
	}
}

// cacheDemo caches the complete result of the query just answered, then
// probes for the same query and reports what a repeat would cost
// instead of the predicted traversal.
func cacheDemo(cf *cliutil.CacheFlags, space *mcost.Space, q mcost.Object, radius float64, k int, matches []mcost.Match, pred mcost.CostEstimate) {
	cache, err := cf.Build(space)
	if err != nil {
		fail(err)
	}
	var pr rescache.Probe
	if radius >= 0 {
		cache.PutRange(q, radius, matches, pred)
		pr = cache.GetRange(q, radius, pred)
	} else {
		cache.PutNN(q, k, matches, pred)
		pr = cache.GetNN(q, k, pred)
	}
	if !pr.Hit {
		fmt.Printf("result cache: result not cacheable under the current flags (radius cap or zero-radius ball)\n")
		return
	}
	fmt.Printf("result cache: a repeat query is answered exactly for %d distance computations (vs %.1f node reads + %.1f dists predicted)\n",
		pr.Dists, pred.Nodes, pred.Dists)
}

// printExplain re-runs the range query on the tree without the
// parent-distance optimization, so the measurement is exactly what
// L-MCM predicts, and prints the per-level comparison.
func printExplain(ix *mcost.Index, q mcost.Object, radius float64) error {
	matches, levels, err := ix.ExplainRange(q, radius)
	if err != nil {
		return err
	}
	fmt.Printf("explain range(Q, %g) — L-MCM prediction vs measurement (no pruning):\n", radius)
	fmt.Printf("%6s %22s %22s\n", "level", "pred nodes/dists", "actual nodes/dists")
	for _, l := range levels {
		fmt.Printf("%6d %10.1f / %-10.1f %10d / %-10d\n", l.Level, l.PredNodes, l.PredDists, l.ActNodes, l.ActDists)
	}
	fmt.Printf("(%d results)\n\n", len(matches))
	return nil
}

// printResults prints up to show matches in canonical (distance, OID)
// order, so every engine, layout and shard count prints the same list.
func printResults(matches []mcost.Match, show int) {
	sorted := append([]mcost.Match(nil), matches...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Distance != sorted[j].Distance {
			return sorted[i].Distance < sorted[j].Distance
		}
		return sorted[i].OID < sorted[j].OID
	})
	fmt.Printf("%d results", len(sorted))
	if len(sorted) > show {
		fmt.Printf(" (showing %d)", show)
	}
	fmt.Println(":")
	for i, m := range sorted {
		if i >= show {
			break
		}
		fmt.Printf("  %2d. d=%-8.3f %v\n", i+1, m.Distance, m.Object)
	}
}

// recordMetrics mirrors the query trace into the process metrics
// registry: total counters plus a result-distance histogram over the
// space's distance bound.
func recordMetrics(reg *mcost.MetricsRegistry, tr *mcost.QueryTrace, matches []mcost.Match, bound float64) {
	reg.Counter("query.count").Inc()
	reg.Counter("query.node_reads").Add(tr.TotalNodes())
	reg.Counter("query.dists").Add(tr.TotalDists())
	reg.Counter("query.results").Add(int64(len(matches)))
	h := reg.Hist("query.result_dist", 32, 0, bound)
	for _, m := range matches {
		h.Observe(m.Distance)
	}
}

// writeMetrics writes the registry snapshot together with the raw query
// trace as one canonical obs envelope — the same encoder behind
// mcost-exp's machine-readable output and mcost-serve's /v1/stats.
func writeMetrics(path string, reg *mcost.MetricsRegistry, tr *mcost.QueryTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = obs.WriteEnvelope(f, reg, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func parseQuery(d *dataset.Dataset, queryStr, queryVec string) (metric.Object, error) {
	switch d.Objects[0].(type) {
	case string:
		if queryStr == "" {
			return nil, fmt.Errorf("string dataset: pass -query WORD")
		}
		return queryStr, nil
	case metric.Vector:
		dim := len(d.Objects[0].(metric.Vector))
		if queryVec == "" {
			// Default: the hypercube center.
			v := make(metric.Vector, dim)
			for i := range v {
				v[i] = 0.5
			}
			return v, nil
		}
		parts := strings.Split(queryVec, ",")
		if len(parts) != dim {
			return nil, fmt.Errorf("query vector has %d coordinates, dataset is %d-dimensional", len(parts), dim)
		}
		v := make(metric.Vector, dim)
		for i, p := range parts {
			x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("coordinate %d: %w", i, err)
			}
			v[i] = x
		}
		return v, nil
	default:
		return nil, fmt.Errorf("unsupported object type %T", d.Objects[0])
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mcost-query:", err)
	os.Exit(1)
}
