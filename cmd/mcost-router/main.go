// Command mcost-router fronts N mcost-serve shard nodes as one
// cost-routed scatter-gather endpoint: internal/server over a
// router.Router engine, so it speaks the nodes' own wire API. At boot
// it fetches each shard's F̂/L-MCM model summary from GET /v1/model and
// reconstructs the per-shard predictors locally; from then on every
// query is priced per shard before any network call. Predictions drive
// the routing: shards whose pivot lower bound proves them irrelevant
// are never contacted, per-shard timeouts scale with predicted cost,
// and cheap shard calls hedge to a replica while expensive ones never
// duplicate work. Failures degrade instead of cascading — retries with
// capped jittered backoff, per-endpoint circuit breakers fed by a
// /healthz polling loop, and typed partial responses ("degraded":
// "shards_failed", shards_failed) when a shard stays down.
//
// Usage:
//
//	mcost-router -addr :8090 http://127.0.0.1:8081 http://127.0.0.1:8082 http://127.0.0.1:8083
//	mcost-router -hedge-max-nodes 50 http://a:8081,http://a2:8081 http://b:8082
//
// Each positional argument lists one shard's endpoints, comma-separated
// with the primary first; shard order must match the nodes'
// -shard-index order. Endpoints: POST /v1/range, POST /v1/nn, GET
// /v1/stats (server.* and router.* counters, per-shard latency
// histograms, per-endpoint breaker-state gauges), GET /healthz (503
// "building" until every shard's summary is in).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mcost/internal/router"
	"mcost/internal/server"
)

func main() {
	var (
		addr = flag.String("addr", ":8090", "listen address")

		slack       = flag.Float64("timeout-slack", router.DefaultSlackFactor, "scale each shard's predicted cost into its timeout by this factor")
		minTimeout  = flag.Duration("min-shard-timeout", router.DefaultMinShardTimeout, "floor for the cost-seeded per-shard timeout")
		maxTimeout  = flag.Duration("max-shard-timeout", router.DefaultMaxShardTimeout, "ceiling for the cost-seeded per-shard timeout")
		hedgeNodes  = flag.Float64("hedge-max-nodes", 0, "hedge a shard call to a replica when its predicted node reads are at or below this (0 = hedging off)")
		hedgeDelay  = flag.Duration("hedge-delay", 0, "how long the primary runs alone before the hedge fires (0 = a quarter of the shard timeout)")
		retries     = flag.Int("retries", router.DefaultMaxRetries, "retries per shard call after the first attempt (-1 = none)")
		retryBase   = flag.Duration("retry-base", router.DefaultRetryBase, "base backoff between retries (doubles per attempt, plus jitter)")
		retryMax    = flag.Duration("retry-max", router.DefaultRetryMax, "backoff ceiling")
		brkFails    = flag.Int("breaker-fails", router.DefaultBreakerFails, "consecutive failures that open an endpoint's circuit breaker")
		brkCooldown = flag.Duration("breaker-cooldown", router.DefaultBreakerCooldown, "how long an open breaker blocks traffic before a half-open probe")
		healthEvery = flag.Duration("health-interval", router.DefaultHealthInterval, "cadence of the /healthz polling loop over every endpoint (negative = off)")
		planCeiling = flag.Float64("plan-ceiling", 0, "reject a query when its tree fan-out, summed over shards, prices above this many node reads + distance computations (typed 422 plan_rejected; 0 = no ceiling)")
		modelWait   = flag.Duration("model-wait", 30*time.Second, "keep polling the boot-time /v1/model fetches this long while nodes build")
		seed        = flag.Int64("seed", 0, "retry-jitter seed (0 = from the clock)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fail(fmt.Errorf("no shard endpoints given; pass one argument per shard, comma-separated replicas"))
	}

	shards := make([][]string, flag.NArg())
	for i, arg := range flag.Args() {
		for _, ep := range strings.Split(arg, ",") {
			ep = strings.TrimSuffix(strings.TrimSpace(ep), "/")
			if ep == "" {
				continue
			}
			if !strings.Contains(ep, "://") {
				ep = "http://" + ep
			}
			shards[i] = append(shards[i], ep)
		}
		if len(shards[i]) == 0 {
			fail(fmt.Errorf("shard %d has no endpoints", i))
		}
	}

	cfg := router.Config{
		Shards:          shards,
		SlackFactor:     *slack,
		MinShardTimeout: *minTimeout,
		MaxShardTimeout: *maxTimeout,
		HedgeMaxNodes:   *hedgeNodes,
		HedgeDelay:      *hedgeDelay,
		MaxRetries:      *retries,
		RetryBase:       *retryBase,
		RetryMax:        *retryMax,
		BreakerFails:    *brkFails,
		BreakerCooldown: *brkCooldown,
		HealthInterval:  *healthEvery,
		Seed:            *seed,
	}
	if *retries <= 0 {
		cfg.MaxRetries = -1 // Config: negative disables retries (0 would mean "default")
	}

	// Listen at once, answering 503 "building" until every shard's
	// summary is in. Nodes listen before they finish building too, so
	// the summaries are polled every 10ms until -model-wait runs out:
	// the router is ready within one poll of the last node.
	ln := server.Listen(*addr)
	fmt.Printf("listening on %s (booting); fetching shard models from %d shard(s)...\n", *addr, len(shards))
	var rt *router.Router
	var err error
	deadline := time.Now().Add(*modelWait)
	for {
		if rt, err = router.New(context.Background(), cfg); err == nil {
			break
		}
		if time.Now().After(deadline) {
			fail(err)
		}
		select {
		case err := <-ln.Failed():
			fail(err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	srv, err := server.New(server.Config{
		Engine:      rt,
		Decode:      rt.Decoder(),
		PlanCeiling: *planCeiling,
		BudgetSlack: -1, // each node budgets its own share
		Registry:    rt.Registry(),
	})
	if err != nil {
		rt.Close()
		fail(err)
	}
	ln.Ready(srv.Handler())
	fmt.Printf("routing on %s: %d shards, %d objects total (hedge <= %g predicted nodes, %d retries, breaker opens at %d fails)\n",
		*addr, len(shards), rt.Size(), *hedgeNodes, cfg.MaxRetries, *brkFails)
	if err := ln.Run(srv.Close, rt.Close); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mcost-router:", err)
	os.Exit(1)
}
