// Command mcost-serve exposes an M-tree (or sharded M-tree) over a
// cost-aware HTTP API. Every request is priced with the level-based
// cost model before it runs: the prediction is charged against an
// admission budget denominated in node reads and distance computations
// per second (not request count), seeds the query's execution budget,
// and accompanies the response — or the typed 429 when the server
// sheds. Admitted queries coalesce in an adaptive micro-batcher so node
// reads amortize under load.
//
// Usage:
//
//	mcost-serve -dataset uniform -n 50000 -dim 8 -addr :8080
//	mcost-serve -dataset words -n 20000 -node-reads-per-sec 5000 -batch-window 2ms
//	mcost-serve -file vocab.ds -shards 4 -debug
//	mcost-serve -shards 3 -shard-index 1 -addr :8082   # one shard node of a cluster
//
// Endpoints: POST /v1/range {"query":..., "radius":r}, POST /v1/nn
// {"query":..., "k":k}, POST /v1/insert {"object":...}, POST /v1/delete
// {"object":..., "oid":n}, GET /v1/stats, GET /healthz, and /debug/
// (pprof + expvar) with -debug. With -recal the cost model stays
// calibrated under the write traffic.
//
// With -shard-index i the process serves only shard i of the -shards
// partition: it runs the same deterministic assignment every sibling
// runs, builds just its own tree, and additionally exports GET
// /v1/model — the F̂/L-MCM summary the mcost-router scatter-gather tier
// prices and prunes with. The listener comes up immediately answering
// 503 "building" on every route, so a router's health loop can watch
// the node warm up without routing work to it. A node serves only its
// tree, read-only: -engine scan, -plan-ceiling and -recal are refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -debug mounts the default mux
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"mcost"
	"mcost/internal/cliutil"
	"mcost/internal/server"
)

func main() {
	fs := flag.CommandLine
	var (
		df  = cliutil.RegisterDataset(fs, "uniform", 10_000, 10)
		tf  = cliutil.RegisterTree(fs, 1, true)
		shf = cliutil.RegisterShards(fs, 1, "pivot", -1)
		stf = cliutil.RegisterStorage(fs)
		cf  = cliutil.RegisterCache(fs, 0)
		rf  = cliutil.RegisterRecal(fs, true)
		ef  = cliutil.RegisterEngine(fs, "auto")

		addr       = flag.String("addr", ":8080", "listen address")
		shardIndex = flag.Int("shard-index", -1, "serve only this shard of the -shards partition (node mode: read-only, exports /v1/model for mcost-router; -1 = serve everything)")

		nodeRate  = flag.Float64("node-reads-per-sec", 0, "admission capacity in predicted node reads per second (0 = unlimited)")
		distRate  = flag.Float64("dist-calcs-per-sec", 0, "admission capacity in predicted distance computations per second (0 = unlimited)")
		burstSecs = flag.Float64("burst-seconds", 1, "admission bucket depth in seconds of capacity")
		maxQueue  = flag.Duration("max-queue-delay", 100*time.Millisecond, "longest predicted queue delay admitted by borrowing against future capacity; beyond it requests shed with 429")

		batchWindow = flag.Duration("batch-window", 0, "hold admitted queries up to this long to coalesce compatible ones into shared-traversal batches (0 = no batching)")
		maxBatch    = flag.Int("max-batch", 0, "dispatch a batch as soon as it reaches this size (0 = default 32 when batching is on)")

		budgetSlack = flag.Float64("budget-slack", server.DefaultBudgetSlack, "cap each admitted query at this multiple of its own predicted cost, returning partial results past it (<= 0 disables per-query budgets)")
		maxBody     = flag.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "largest accepted request body")
		maxK        = flag.Int("max-k", 0, "largest accepted k for k-NN requests (0 = dataset size)")
		debug       = flag.Bool("debug", false, "mount net/http/pprof and expvar (including the metrics registry at /debug/vars) under /debug/")
	)
	flag.Parse()
	if err := tf.ValidateLayout(); err != nil {
		fail(err)
	}

	reg := mcost.NewMetricsRegistry()
	if *debug {
		reg.PublishExpvar("mcost")
	}

	d, err := df.Load(tf.Seed)
	if err != nil {
		fail(err)
	}

	// Listen before building: the node answers 503 "building" on every
	// route until the engine is warm, so a router's health loop can see
	// it early without routing work to it.
	var handler atomic.Value // http.Handler
	handler.Store(server.BootingHandler())
	httpSrv := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()

	fmt.Printf("listening on %s (booting); building engine over %s (n=%d, node size %d B, shards=%d)...\n",
		*addr, d.Name, d.N(), tf.PageSize, shf.Shards)
	storage := stf.Options(reg)

	var eng server.Engine
	if *shardIndex >= 0 {
		if shf.Shards < 2 {
			fail(fmt.Errorf("-shard-index %d needs -shards >= 2", *shardIndex))
		}
		if rf.Enabled {
			fail(fmt.Errorf("-recal is not supported in shard-node mode (nodes are read-only)"))
		}
		if mode, err := mcost.ParseEngineMode(ef.Mode); err != nil {
			fail(err)
		} else if mode == mcost.EngineScan {
			fail(fmt.Errorf("-engine scan is not supported in shard-node mode (a node serves only its tree)"))
		}
		so, err := shf.Options()
		if err != nil {
			fail(err)
		}
		node, err := mcost.BuildShardNode(d.Space, d.Objects, tf.Options(storage), so, *shardIndex)
		if err != nil {
			fail(err)
		}
		eng = node
		fmt.Printf("shard node %d/%d: %d objects, %d nodes, height %d (read-only; /v1/model exported)\n",
			*shardIndex, shf.Shards, eng.Size(), eng.NumNodes(), eng.Height())
	} else {
		ix, err := cliutil.Build(d, tf.Options(storage), shf)
		if err != nil {
			fail(err)
		}
		eng = ix
		if storage.Faults != nil {
			ix.SetFaultsEnabled(true)
		}
		if err := rf.Apply(ix, d, tf.Seed); err != nil {
			fail(err)
		}
		if err := ef.Apply(ix); err != nil {
			fail(err)
		}
		fmt.Printf("engine: %d objects, %d nodes, height %d (mode %s)\n",
			eng.Size(), eng.NumNodes(), eng.Height(), ef.Mode)
		hard := ix.Hardness()
		fmt.Printf("hardness: intrinsic dim %.2f, concentration %.4f, crossover radius %g, crossover k %d\n",
			hard.Hardness(), hard.Concentration, hard.CrossoverRadius, hard.CrossoverK)
		fmt.Printf("build: %s\n", ix.BuildStages())
		if rf.Enabled {
			rc := rf.Config(tf.Seed).Effective()
			fmt.Printf("recalibration: on (window %d, band %g); /v1/insert and /v1/delete keep the model live\n",
				rc.Window, rc.Band)
		}
	}

	dec, err := server.DecoderForSpace(d.Space, d.Objects[0])
	if err != nil {
		fail(err)
	}
	slack := *budgetSlack
	if slack <= 0 {
		slack = -1 // Config: negative disables budgets (0 would mean "default")
	}
	cache, err := cf.Build(d.Space)
	if err != nil {
		fail(err)
	}
	srv, err := server.New(server.Config{
		Engine: eng,
		Decode: dec,
		Admission: server.AdmitConfig{
			NodeReadsPerSec: *nodeRate,
			DistCalcsPerSec: *distRate,
			BurstSeconds:    *burstSecs,
			MaxQueueDelay:   *maxQueue,
		},
		Batch:        server.BatchConfig{Window: *batchWindow, MaxBatch: *maxBatch},
		Cache:        cache,
		PlanCeiling:  ef.Ceiling,
		BudgetSlack:  slack,
		MaxBodyBytes: *maxBody,
		MaxK:         *maxK,
		Registry:     reg,
		Debug:        *debug,
	})
	if err != nil {
		fail(err)
	}
	handler.Store(srv.Handler())

	fmt.Printf("serving on %s (admission: %g node reads/s, %g dist calcs/s; batch window %v)\n",
		*addr, *nodeRate, *distRate, *batchWindow)
	if cache != nil {
		fmt.Printf("result cache: %d entries (hits answer exactly, spending no admission tokens)\n", cf.Entries)
	}
	if *debug {
		fmt.Printf("debug endpoints on http://%s/debug/pprof/ and /debug/vars\n", *addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		srv.Close()
		fail(err)
	case s := <-sig:
		fmt.Printf("\n%v: draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "mcost-serve: shutdown:", err)
		}
		srv.Close()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mcost-serve:", err)
	os.Exit(1)
}
