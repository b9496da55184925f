package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mcost/internal/metric"
)

// Closed-loop HTTP load generation against the mcost-serve wire API.
// The same weighted query mix the in-process runner executes is driven
// through POST /v1/range and /v1/nn: each worker keeps exactly one
// request in flight (closed loop — offered load tracks service rate),
// shed responses are counted and optionally honored with the server's
// retry_after_ms backoff, and every range result is validated against
// its radius so a degraded server can never silently return garbage.
// The generator speaks the wire JSON shapes directly rather than
// importing the server package: it is a client, and a layering cycle
// with the server's own tests is not worth a shared struct.

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

// wire shapes (client-side view of the server's JSON).
type wireMatch struct {
	OID      uint64  `json:"oid"`
	Distance float64 `json:"distance"`
}

type wireQueryResponse struct {
	Matches []wireMatch `json:"matches"`
	Partial bool        `json:"partial"`
	Cached  bool        `json:"cached"`
	// Degraded names a partial's cause; a router's shard loss is
	// "shards_failed".
	Degraded string `json:"degraded"`
}

type wireErrorResponse struct {
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

type wireInsertResponse struct {
	OID uint64 `json:"oid"`
}

// httpRequest is one planned request of the run.
type httpRequest struct {
	class QueryClass
	q     metric.Object
	kind  int // reqQuery, reqInsert, or reqDelete
}

const (
	reqQuery = iota
	reqInsert
	reqDelete
)

// insertedObj remembers one acknowledged insert so a later delete can
// target it (the server verifies the object against the OID).
type insertedObj struct {
	oid uint64
	obj metric.Object
}

// oidStack is the run's shared pool of deletable objects.
type oidStack struct {
	mu sync.Mutex
	s  []insertedObj
}

func (s *oidStack) push(oid uint64, obj metric.Object) {
	s.mu.Lock()
	s.s = append(s.s, insertedObj{oid: oid, obj: obj})
	s.mu.Unlock()
}

func (s *oidStack) pop() (insertedObj, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.s) == 0 {
		return insertedObj{}, false
	}
	it := s.s[len(s.s)-1]
	s.s = s.s[:len(s.s)-1]
	return it, true
}

// RunHTTP drives the workload against the serving API at baseURL (no
// trailing slash, e.g. "http://localhost:8080") and reports what came
// back. Queries are sampled from queryPool per class, exactly as the
// in-process runner samples them.
func RunHTTP(baseURL string, w *Workload, queryPool []metric.Object, opt HTTPOptions) (*HTTPReport, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(queryPool) == 0 {
		return nil, fmt.Errorf("workload: empty query pool")
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
	client := opt.Client
	if client == nil {
		client = http.DefaultClient
	}

	if opt.InsertFrac < 0 || opt.DeleteFrac < 0 || opt.InsertFrac+opt.DeleteFrac > 1 {
		return nil, fmt.Errorf("workload: mutation mix insert=%g delete=%g out of range", opt.InsertFrac, opt.DeleteFrac)
	}
	nIns := int(opt.InsertFrac*float64(opt.Requests) + 0.5)
	nDel := int(opt.DeleteFrac*float64(opt.Requests) + 0.5)
	reads := opt.Requests - nIns - nDel

	weights := make([]float64, len(w.Classes))
	for i, c := range w.Classes {
		weights[i] = c.Weight
	}
	counts, err := apportion(weights, reads)
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
		next  atomic.Int64
		mu    sync.Mutex
		rep   HTTPReport
		wg    sync.WaitGroup
		stack oidStack
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
				res := issue(client, baseURL, plan[i], &stack)
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

func issue(client *http.Client, baseURL string, r httpRequest, stack *oidStack) issueResult {
	switch r.kind {
	case reqInsert:
		return issueInsert(client, baseURL, r.q, stack)
	case reqDelete:
		if it, ok := stack.pop(); ok {
			return issueDelete(client, baseURL, it)
		}
		// Nothing of ours to delete yet: keep the write pressure up with
		// the fallback insert instead.
		return issueInsert(client, baseURL, r.q, stack)
	}
	var (
		path string
		body map[string]interface{}
	)
	if r.class.K > 0 {
		path = baseURL + "/v1/nn"
		body = map[string]interface{}{"query": r.q, "k": r.class.K}
	} else {
		path = baseURL + "/v1/range"
		body = map[string]interface{}{"query": r.q, "radius": r.class.Radius}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return issueResult{errs: 1}
	}
	resp, err := client.Post(path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return issueResult{errs: 1}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return issueResult{errs: 1}
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var qr wireQueryResponse
		if err := json.Unmarshal(payload, &qr); err != nil {
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
	case http.StatusTooManyRequests:
		var er wireErrorResponse
		if err := json.Unmarshal(payload, &er); err != nil || er.Code != "overloaded" {
			return issueResult{errs: 1}
		}
		return issueResult{shed: 1, backoff: time.Duration(er.RetryAfterMS) * time.Millisecond}
	default:
		return issueResult{errs: 1}
	}
}

// issueInsert posts one object to /v1/insert and records the returned
// OID so a later delete of this run can target it.
func issueInsert(client *http.Client, baseURL string, obj metric.Object, stack *oidStack) issueResult {
	raw, err := json.Marshal(map[string]interface{}{"object": obj})
	if err != nil {
		return issueResult{errs: 1}
	}
	resp, err := client.Post(baseURL+"/v1/insert", "application/json", bytes.NewReader(raw))
	if err != nil {
		return issueResult{errs: 1}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return issueResult{errs: 1}
	}
	var ir wireInsertResponse
	if err := json.Unmarshal(payload, &ir); err != nil {
		return issueResult{errs: 1}
	}
	stack.push(ir.OID, obj)
	return issueResult{inserts: 1}
}

// issueDelete posts one previously-inserted object to /v1/delete.
func issueDelete(client *http.Client, baseURL string, it insertedObj) issueResult {
	raw, err := json.Marshal(map[string]interface{}{"object": it.obj, "oid": it.oid})
	if err != nil {
		return issueResult{errs: 1}
	}
	resp, err := client.Post(baseURL+"/v1/delete", "application/json", bytes.NewReader(raw))
	if err != nil {
		return issueResult{errs: 1}
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
		return issueResult{errs: 1}
	}
	return issueResult{deletes: 1}
}
