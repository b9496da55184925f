package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"mcost/internal/budget"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
)

// Adaptive micro-batching. Under load many in-flight queries share a
// shape (same radius, same k) — exactly the batches the engine's
// shared-traversal RangeBatch/NNBatch execute with each node fetched
// once for the whole batch. The batcher holds an admitted query for at
// most a configurable window, coalesces it with compatible queued
// queries, and dispatches the batch through the engine, so node reads
// amortize when the server needs it most while an idle server pays at
// most one window of added latency (and none with Window = 0).

// BatchConfig tunes the micro-batcher.
type BatchConfig struct {
	// Window is the longest a query waits for batch companions. Zero
	// disables batching: every query dispatches alone, immediately.
	Window time.Duration
	// MaxBatch dispatches a batch as soon as it reaches this size
	// (default 32 when batching is on).
	MaxBatch int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.Window > 0 && c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	return c
}

// batchKey identifies queries that may share one engine dispatch.
// Range queries batch per exact radius, k-NN per exact k: the shared
// traversal requires one radius/k for the whole batch.
type batchKey struct {
	nn     bool
	radius float64
	k      int
}

// call is one admitted query waiting in the batcher.
type call struct {
	q   metric.Object
	b   budget.Budget
	enq time.Time
	ch  chan callResult
}

type callResult struct {
	matches   []mtree.Match
	batchSize int
	queued    time.Duration
	err       error
	// fanout is the call's scatter record on a fan-out engine (nil on
	// an in-process one).
	fanout *obs.Fanout
}

// pendingQueue collects calls for one batchKey. gen identifies this
// queue instance for its window timer: generations are drawn from a
// batcher-wide monotonic counter, so a timer armed for a queue that was
// already dispatched by size can never match the replacement queue that
// later forms under the same key.
type pendingQueue struct {
	calls []*call
	gen   uint64
}

// Batcher coalesces admitted queries into engine batches. Dispatch
// totals are merged into the registry under the server.* names.
type Batcher struct {
	eng Engine
	cfg BatchConfig
	now func() time.Time
	// after schedules the window-flush callback (a test seam;
	// time.AfterFunc in production).
	after func(time.Duration, func())

	// ctx is cancelled by Close so shutdown reaches in-flight engine
	// dispatches. Per-call contexts are deliberately NOT threaded into
	// the dispatch: one client's disconnect must never fail its batch
	// companions.
	ctx    context.Context
	cancel context.CancelFunc

	// Dispatch-side instruments (nil registry hands out nil, free).
	cBatches   *obs.Counter
	cQueries   *obs.Counter
	cNodeReads *obs.Counter
	cDists     *obs.Counter
	hBatch     *obs.Hist
	hQueueMS   *obs.Hist

	mu      sync.Mutex
	pending map[batchKey]*pendingQueue
	nextGen uint64
	closed  bool
}

// errClosed reports Do on a closed batcher.
var errClosed = errors.New("server: batcher closed")

// NewBatcher returns a batcher dispatching into eng and recording into
// reg (which may be nil). The clock is injectable for tests.
func NewBatcher(eng Engine, cfg BatchConfig, reg *obs.Registry, now func() time.Time) *Batcher {
	if now == nil {
		now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Batcher{
		eng:        eng,
		cfg:        cfg.withDefaults(),
		now:        now,
		after:      func(d time.Duration, f func()) { time.AfterFunc(d, f) },
		ctx:        ctx,
		cancel:     cancel,
		cBatches:   reg.Counter("server.batches"),
		cQueries:   reg.Counter("server.batched_queries"),
		cNodeReads: reg.Counter("server.node_reads"),
		cDists:     reg.Counter("server.dist_calcs"),
		hBatch:     reg.Hist("server.batch_size", 64, 0, 256),
		hQueueMS:   reg.Hist("server.queue_ms", 50, 0, 500),
		pending:    make(map[batchKey]*pendingQueue),
	}
}

// Do executes one admitted query, batching it with compatible queued
// queries when batching is on. It blocks until the dispatch finishes or
// ctx is done; an abandoned call's slot still executes with its batch
// (the result is discarded), so companions are never failed by one
// client's disconnect.
func (b *Batcher) Do(ctx context.Context, key batchKey, q metric.Object, qb budget.Budget) callResult {
	c := &call{q: q, b: qb, enq: b.now(), ch: make(chan callResult, 1)}
	if b.cfg.Window <= 0 || b.cfg.MaxBatch <= 1 {
		b.dispatch(key, []*call{c})
	} else if err := b.enqueue(key, c); err != nil {
		return callResult{err: err}
	}
	select {
	case res := <-c.ch:
		return res
	case <-ctx.Done():
		return callResult{err: ctx.Err()}
	}
}

// enqueue adds c to its key's queue, arming the window timer on the
// first call and flushing by size when the queue fills.
func (b *Batcher) enqueue(key batchKey, c *call) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errClosed
	}
	pq := b.pending[key]
	if pq == nil {
		b.nextGen++
		pq = &pendingQueue{gen: b.nextGen}
		b.pending[key] = pq
	}
	pq.calls = append(pq.calls, c)
	if len(pq.calls) >= b.cfg.MaxBatch {
		calls := b.take(key, pq)
		b.mu.Unlock()
		// The filling request's goroutine runs the dispatch: natural
		// backpressure, no unbounded goroutine growth.
		b.dispatch(key, calls)
		return nil
	}
	if len(pq.calls) == 1 {
		gen := pq.gen
		b.after(b.cfg.Window, func() { b.flushTimer(key, gen) })
	}
	b.mu.Unlock()
	return nil
}

// take detaches the queue's calls and removes the queue; its timer, if
// still pending, finds no queue with a matching generation and no-ops.
// Caller holds b.mu.
func (b *Batcher) take(key batchKey, pq *pendingQueue) []*call {
	calls := pq.calls
	pq.calls = nil
	delete(b.pending, key)
	return calls
}

// flushTimer dispatches whatever the window collected, unless the
// batch already went out by size (generation mismatch).
func (b *Batcher) flushTimer(key batchKey, gen uint64) {
	b.mu.Lock()
	pq := b.pending[key]
	if pq == nil || pq.gen != gen || len(pq.calls) == 0 {
		b.mu.Unlock()
		return
	}
	calls := b.take(key, pq)
	b.mu.Unlock()
	b.dispatch(key, calls)
}

// Close flushes every pending batch, then cancels the batcher context
// so in-flight dispatches unwind with typed partials, and fails later
// Do calls. The flush runs before the cancel: queued-but-undispatched
// queries still get a clean, complete execution on shutdown.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	flush := make(map[batchKey][]*call, len(b.pending))
	for key, pq := range b.pending {
		flush[key] = b.take(key, pq)
	}
	b.mu.Unlock()
	for key, calls := range flush {
		b.dispatch(key, calls)
	}
	b.cancel()
}

// batchBudget sums the per-call budgets into the batch-wide cap the
// engine enforces. Any unlimited call leaves that dimension unlimited —
// a capped companion must not constrain it.
func batchBudget(calls []*call) budget.Budget {
	var nodes, dists int64
	nodesOpen, distsOpen := false, false
	for _, c := range calls {
		if c.b.MaxNodeReads <= 0 {
			nodesOpen = true
		} else {
			nodes += c.b.MaxNodeReads
		}
		if c.b.MaxDistCalcs <= 0 {
			distsOpen = true
		} else {
			dists += c.b.MaxDistCalcs
		}
	}
	if nodesOpen {
		nodes = 0
	}
	if distsOpen {
		dists = 0
	}
	return budget.Budget{MaxNodeReads: nodes, MaxDistCalcs: dists}
}

// dispatch runs one batch through the engine, merges the dispatch trace
// into the registry, and distributes per-call results. A typed
// budget/context error reaches every call alongside its partial result
// set; engine failures reach every call with no results. The engine
// runs under the batcher's context — cancelled only by Close, never by
// a single call's disconnect — so shutdown can stop a slow batch while
// companions still share each other's fate.
func (b *Batcher) dispatch(key batchKey, calls []*call) {
	if len(calls) == 0 {
		return
	}
	qs := make([]metric.Object, len(calls))
	for i, c := range calls {
		qs[i] = c.q
	}
	tr := obs.NewTrace()
	// Queueing ends when the batch starts executing: stamp before the
	// engine call so server.queue_ms measures the wait alone, not the
	// engine's execution time.
	started := b.now()
	var (
		sets [][]mtree.Match
		err  error
	)
	bb := batchBudget(calls)
	if key.nn {
		sets, err = b.eng.NNBatchTraced(b.ctx, qs, key.k, bb, tr)
	} else {
		sets, err = b.eng.RangeBatchTraced(b.ctx, qs, key.radius, bb, tr)
	}
	b.cBatches.Inc()
	b.cQueries.Add(int64(len(calls)))
	b.cNodeReads.Add(tr.TotalNodes())
	b.cDists.Add(tr.TotalDists())
	b.hBatch.Observe(float64(len(calls)))
	for i, c := range calls {
		res := callResult{batchSize: len(calls), queued: started.Sub(c.enq), err: err}
		if i < len(sets) {
			res.matches = sets[i]
		}
		if i < len(tr.Fanouts) {
			res.fanout = &tr.Fanouts[i]
		}
		b.hQueueMS.Observe(res.queued.Seconds() * 1000)
		c.ch <- res
	}
}
