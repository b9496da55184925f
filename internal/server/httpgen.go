package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mcost/internal/metric"
	"mcost/internal/workload"
)

// Closed-loop HTTP load generation against the mcost-serve wire API.
// The same weighted query mix the in-process runner executes is driven
// through POST /v1/range and /v1/nn: each worker keeps exactly one
// request in flight (closed loop — offered load tracks service rate),
// shed responses are counted and optionally honored with the server's
// retry_after_ms backoff, and every range result is validated against
// its radius so a degraded server can never silently return garbage.
// Every request goes through Client, so the driver reads the wire the
// way the router does. It lives beside the client rather than in
// internal/workload, whose in-process runner the server's own tests
// import.

// HTTPOptions configures a closed-loop HTTP run.
type HTTPOptions struct {
	// Requests is the total number of requests to issue (default 200),
	// apportioned to the workload's classes by weight.
	Requests int
	// Workers is the closed-loop concurrency (default 4): each worker
	// holds one request in flight.
	Workers int
	// Seed drives class shuffling and query sampling.
	Seed int64
	// ZipfS, when > 1, samples queries from the pool with a Zipf
	// distribution of this exponent instead of uniformly: low pool
	// indices repeat often, the shape of real similarity traffic and
	// the regime a result cache is built for. 0 (or anything ≤ 1)
	// keeps uniform sampling.
	ZipfS float64
	// InsertFrac diverts this fraction of Requests to POST /v1/insert,
	// writing objects sampled from the query pool (0 = read-only run).
	InsertFrac float64
	// DeleteFrac diverts this fraction of Requests to POST /v1/delete,
	// targeting OIDs this run inserted earlier (a delete drawn before
	// any insert has landed falls back to an insert, so the run never
	// deletes objects it does not own). InsertFrac+DeleteFrac must be
	// at most 1.
	DeleteFrac float64
	// Backoff honors the retry_after_ms of a 429 before the worker's
	// next request (the shed request itself is not retried). Capped by
	// MaxBackoff.
	Backoff bool
	// MaxBackoff caps one backoff sleep (default 100ms).
	MaxBackoff time.Duration
	// Client issues the requests (default http.DefaultClient).
	Client *http.Client
}

// HTTPReport summarizes a closed-loop HTTP run.
type HTTPReport struct {
	// Requests is the number issued; it always equals OK + Partial +
	// Shed + Errors.
	Requests int
	// OK counts complete 200 responses, Partial the degraded 200s
	// (budget, deadline or lost shards), Shed the typed 429s.
	OK, Partial, Shed int
	// Degraded counts 200 responses a scatter-gather router marked
	// shard-degraded ("degraded": "shards_failed") — results missing one
	// or more failed shards. They also count in Partial, so the Requests
	// identity holds.
	Degraded int
	// Errors counts transport failures and any other status.
	Errors int
	// Invalid counts range responses carrying a match beyond the
	// requested radius — always zero against a correct server, degraded
	// or not.
	Invalid int
	// CacheHits counts 200 responses the server marked as served from
	// its result cache.
	CacheHits int
	// Inserts and Deletes count acknowledged writes. Requests equals
	// OK + Partial + Shed + Errors + Inserts + Deletes on mixed runs.
	Inserts, Deletes int
	// BackoffTotal is the time spent honoring retry_after_ms.
	BackoffTotal time.Duration
}

// httpRequest is one planned request of the run.
type httpRequest struct {
	class workload.QueryClass
	q     metric.Object
	kind  int // reqQuery, reqInsert, or reqDelete
}

const (
	reqQuery = iota
	reqInsert
	reqDelete
)

// insertedObj remembers one acknowledged insert so a later delete can
// target it (the server verifies the object against the OID). A run's
// deletable objects queue on a channel with room for every insert it
// can make.
type insertedObj struct {
	oid uint64
	obj metric.Object
}

// RunHTTP drives the workload against the serving API at baseURL (no
// trailing slash, e.g. "http://localhost:8080") and reports what came
// back. Queries are sampled from queryPool per class, exactly as the
// in-process runner samples them.
func RunHTTP(baseURL string, w *workload.Workload, queryPool []metric.Object, opt HTTPOptions) (*HTTPReport, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(queryPool) == 0 {
		return nil, fmt.Errorf("server: empty query pool")
	}
	if opt.Requests == 0 {
		opt.Requests = 200
	}
	if opt.Workers <= 0 {
		opt.Workers = 4
	}
	if opt.MaxBackoff <= 0 {
		opt.MaxBackoff = 100 * time.Millisecond
	}
	client := NewClient(baseURL, opt.Client)

	if opt.InsertFrac < 0 || opt.DeleteFrac < 0 || opt.InsertFrac+opt.DeleteFrac > 1 {
		return nil, fmt.Errorf("server: mutation mix insert=%g delete=%g out of range", opt.InsertFrac, opt.DeleteFrac)
	}
	nIns := int(opt.InsertFrac*float64(opt.Requests) + 0.5)
	nDel := int(opt.DeleteFrac*float64(opt.Requests) + 0.5)
	reads := opt.Requests - nIns - nDel

	counts, err := w.Apportion(reads)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	sample := func() metric.Object { return queryPool[rng.Intn(len(queryPool))] }
	if opt.ZipfS > 1 {
		zipf := rand.NewZipf(rng, opt.ZipfS, 1, uint64(len(queryPool)-1))
		sample = func() metric.Object { return queryPool[zipf.Uint64()] }
	}
	plan := make([]httpRequest, 0, opt.Requests)
	for ci, n := range counts {
		for j := 0; j < n; j++ {
			plan = append(plan, httpRequest{
				class: w.Classes[ci],
				q:     sample(),
			})
		}
	}
	for j := 0; j < nIns; j++ {
		plan = append(plan, httpRequest{kind: reqInsert, q: sample()})
	}
	for j := 0; j < nDel; j++ {
		// The sampled object is the fallback insert payload when no
		// earlier insert of this run is available to delete yet.
		plan = append(plan, httpRequest{kind: reqDelete, q: sample()})
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })

	var (
		next      atomic.Int64
		mu        sync.Mutex
		rep       HTTPReport
		wg        sync.WaitGroup
		deletable = make(chan insertedObj, nIns+nDel)
	)
	for wk := 0; wk < opt.Workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					return
				}
				res := issue(client, plan[i], deletable)
				sleep := res.backoff
				if !opt.Backoff || sleep <= 0 {
					sleep = 0
				} else if sleep > opt.MaxBackoff {
					sleep = opt.MaxBackoff
				}
				mu.Lock()
				rep.Requests++
				rep.OK += res.ok
				rep.Partial += res.partial
				rep.Shed += res.shed
				rep.Errors += res.errs
				rep.Invalid += res.invalid
				rep.CacheHits += res.cached
				rep.Degraded += res.degraded
				rep.Inserts += res.inserts
				rep.Deletes += res.deletes
				rep.BackoffTotal += sleep
				mu.Unlock()
				if sleep > 0 {
					time.Sleep(sleep)
				}
			}
		}()
	}
	wg.Wait()
	return &rep, nil
}

// issueResult is one request's contribution to the report.
type issueResult struct {
	ok, partial, shed, errs, invalid, cached int
	degraded                                 int
	inserts, deletes                         int
	backoff                                  time.Duration
}

func issue(client *Client, r httpRequest, deletable chan insertedObj) issueResult {
	ctx := context.Background()
	if r.kind == reqDelete {
		select {
		case it := <-deletable:
			if _, err := client.Delete(ctx, it.obj, it.oid); err != nil {
				return issueResult{errs: 1}
			}
			return issueResult{deletes: 1}
		default:
			// Nothing of ours to delete yet: keep the write pressure up
			// with the fallback insert instead.
		}
	}
	if r.kind != reqQuery {
		ir, err := client.Insert(ctx, r.q)
		if err != nil {
			return issueResult{errs: 1}
		}
		deletable <- insertedObj{oid: ir.OID, obj: r.q}
		return issueResult{inserts: 1}
	}
	var (
		qr  *QueryResponse
		err error
	)
	if r.class.K > 0 {
		qr, err = client.NN(ctx, r.q, r.class.K)
	} else {
		qr, err = client.Range(ctx, r.q, r.class.Radius)
	}
	if err != nil {
		var ce *ClientError
		if errors.As(err, &ce) && ce.Status == http.StatusTooManyRequests && ce.Code == "overloaded" {
			return issueResult{shed: 1, backoff: time.Duration(ce.RetryAfterMS) * time.Millisecond}
		}
		return issueResult{errs: 1}
	}
	var out issueResult
	if qr.Partial {
		out.partial = 1
	} else {
		out.ok = 1
	}
	if qr.Cached {
		out.cached = 1
	}
	if qr.Degraded == "shards_failed" {
		out.degraded = 1
	}
	if r.class.K == 0 {
		// Degraded or not, a range response may only contain true
		// matches.
		for _, m := range qr.Matches {
			if m.Distance > r.class.Radius {
				out.invalid++
			}
		}
	}
	return out
}
