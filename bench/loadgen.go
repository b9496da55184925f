package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mcost/internal/metric"
)

// openBacklog bounds the open loop's set of due-but-unanswered ops. An
// arrival that finds it full is recorded as a failure instead of
// joining an ever-longer queue, so a stalled server shows up as failed
// ops and a bounded generator, not as a pile of goroutines.
const openBacklog = 256

// drainGrace is how long after a window's end an op may still be
// answered before it counts as failed.
const drainGrace = 2 * time.Second

// wireMatch and wireResponse decode the 200 bodies of every endpoint
// the generator calls, on a node or on the router. Degraded is a string
// on a node and a bool on the router; either way it is absent from a
// full answer.
type wireMatch struct {
	OID      uint64        `json:"oid"`
	Distance float64       `json:"distance"`
	Object   metric.Vector `json:"object"`
}

type wireResponse struct {
	Matches   []wireMatch     `json:"matches"`
	Partial   bool            `json:"partial"`
	Degraded  json.RawMessage `json:"degraded"`
	Cached    bool            `json:"cached"`
	BatchSize int             `json:"batch_size"`
	QueuedMS  float64         `json:"queued_ms"`
	OID       uint64          `json:"oid"` // /v1/insert
}

// result is the outcome of one op.
type result struct {
	op op
	// due, began and ended are offsets from the generator's epoch. due
	// equals began in the closed loop; in the open loop it is the
	// scheduled arrival, and latency is counted from it.
	due, began, ended time.Duration
	failure           string // empty when the op succeeded
	cached            bool
	batchSize         int
	queuedMS          float64
	// matches is kept only for answers the oracle compares with a scan.
	matches []wireMatch
}

func (r *result) latencyMS() float64 { return float64(r.ended-r.due) / float64(time.Millisecond) }

// generator drives one deployment from this process over a fixed set of
// keep-alive connections.
type generator struct {
	w      workload
	in     *inputs
	front  string
	client *http.Client
	epoch  time.Time
	seed   int64
	conns  int

	writes    *writeLog
	freshNext atomic.Int64
}

// newGenerator sizes the connection pool to the machine: one closed-loop
// client, and one open-loop worker, per CPU.
func newGenerator(w workload, in *inputs, front string, seed int64) *generator {
	conns := runtime.NumCPU()
	return &generator{
		w: w, in: in, front: front, seed: seed, conns: conns,
		epoch:  time.Now(),
		writes: newWriteLog(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

func (g *generator) now() time.Duration { return time.Since(g.epoch) }

// post sends one body to url and decodes a 200 answer.
func (g *generator) post(ctx context.Context, url string, body []byte) (*wireResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out wireResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decoding answer: %w", err)
	}
	return &out, nil
}

// run executes one op and checks its answer. A delete with no
// acknowledged insert left to delete inserts instead, which keeps the
// write share of the mix.
func (g *generator) run(ctx context.Context, o op, due time.Duration) result {
	r := result{op: o, due: due, began: g.now()}
	var err error
	switch o.kind {
	case opRange, opNN:
		url, body := g.front+"/v1/range", g.in.rangeBody[o.index]
		if o.kind == opNN {
			url, body = g.front+"/v1/nn", g.in.nnBody[o.index]
		}
		var resp *wireResponse
		resp, err = g.post(ctx, url, body)
		r.ended = g.now()
		if err == nil {
			r.cached, r.batchSize, r.queuedMS = resp.Cached, resp.BatchSize, resp.QueuedMS
			err = checkAnswer(g.in.space, g.w, o, g.in.pool[o.index], resp)
			if o.oracle {
				r.matches = resp.Matches
			}
		}
	case opDelete:
		if rec := g.writes.popForDelete(r.began); rec != nil {
			var body []byte
			body, err = json.Marshal(map[string]interface{}{"object": rec.obj, "oid": rec.oid})
			if err == nil {
				_, err = g.post(ctx, g.front+"/v1/delete", body)
			}
			r.ended = g.now()
			if err == nil {
				g.writes.deleted(rec, r.ended)
			}
			break
		}
		r.op.kind = opInsert
		fallthrough
	case opInsert:
		obj := g.in.fresh[int(g.freshNext.Add(1)-1)%len(g.in.fresh)]
		var body []byte
		body, err = json.Marshal(map[string]interface{}{"object": obj})
		var resp *wireResponse
		if err == nil {
			resp, err = g.post(ctx, g.front+"/v1/insert", body)
		}
		r.ended = g.now()
		if err == nil {
			g.writes.inserted(resp.OID, obj, r.began, r.ended)
		}
	}
	if r.ended == 0 {
		r.ended = g.now()
	}
	if err != nil {
		r.failure = err.Error()
	}
	return r
}

// closedLoop runs one client per connection for the window: each sends
// its next op when the previous one returns, so a slow server is
// offered less load. phase numbers the op streams, so the warm-up and
// the measured window draw different ops.
func (g *generator) closedLoop(ctx context.Context, window time.Duration, phase int) []result {
	ctx, cancel := context.WithDeadline(ctx, time.Now().Add(window+drainGrace))
	defer cancel()
	end := g.now() + window
	per := make([][]result, g.conns)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := newOpStream(g.w, g.seed, phase*g.conns+c)
			for g.now() < end {
				per[c] = append(per[c], g.run(ctx, ops.next(), g.now()))
			}
		}(c)
	}
	wg.Wait()
	var all []result
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all
}

// openReport is what the open loop measured besides its results.
type openReport struct {
	results []result
	lateMS  []float64 // how long after its due time each op was handed to a worker
}

// openLoop sends ops on a Poisson schedule fixed by the seed, whatever
// the server does. Each op is timed from the instant it was due, so the
// wait a stall imposes on later arrivals counts. One worker per
// connection takes ops from a bounded backlog.
func (g *generator) openLoop(ctx context.Context, window time.Duration, phase int) openReport {
	due := poissonSchedule(g.seed*1000003+int64(phase), g.w.openRate, window.Seconds())
	ops := newOpStream(g.w, g.seed, phase*g.conns)
	type arrival struct {
		op  op
		due time.Duration
	}
	arrivals := make([]arrival, len(due))
	start := g.now()
	for i, d := range due {
		arrivals[i] = arrival{op: ops.next(), due: start + time.Duration(d*float64(time.Second))}
	}
	ctx, cancel := context.WithDeadline(ctx, g.epoch.Add(start+window+drainGrace))
	defer cancel()

	backlog := make(chan arrival, openBacklog)
	per := make([][]result, g.conns)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for a := range backlog {
				per[c] = append(per[c], g.run(ctx, a.op, a.due))
			}
		}(c)
	}
	rep := openReport{lateMS: make([]float64, 0, len(arrivals))}
	for _, a := range arrivals {
		if wait := a.due - g.now(); wait > 0 {
			time.Sleep(wait)
		}
		late := g.now() - a.due
		rep.lateMS = append(rep.lateMS, float64(late)/float64(time.Millisecond))
		select {
		case backlog <- a:
		default:
			rep.results = append(rep.results, result{op: a.op, due: a.due, began: a.due, ended: g.now(),
				failure: fmt.Sprintf("backlog of %d unanswered ops is full", openBacklog)})
		}
	}
	close(backlog)
	wg.Wait()
	for _, rs := range per {
		rep.results = append(rep.results, rs...)
	}
	return rep
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
