package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
)

// lockedEngine serializes a Mutable engine behind a readers-writer
// lock: pricing, batch dispatch, and structural reads share the read
// side; the write handlers take the write side around Insert/Delete.
// The trees support concurrent read-only queries but not mutation
// concurrent with anything, so this is the minimal guard that keeps the
// read path fully parallel between writes.
type lockedEngine struct {
	eng Engine
	mu  *sync.RWMutex
}

func (l *lockedEngine) PriceRange(radius float64) core.CostEstimate {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.eng.PriceRange(radius)
}

func (l *lockedEngine) PriceNN(k int) core.CostEstimate {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.eng.PriceNN(k)
}

func (l *lockedEngine) RangeBatchTraced(ctx context.Context, qs []metric.Object, radius float64, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.eng.RangeBatchTraced(ctx, qs, radius, b, tr)
}

func (l *lockedEngine) NNBatchTraced(ctx context.Context, qs []metric.Object, k int, b budget.Budget, tr *obs.Trace) ([][]mtree.Match, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.eng.NNBatchTraced(ctx, qs, k, b, tr)
}

func (l *lockedEngine) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.eng.Size()
}

func (l *lockedEngine) NumNodes() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.eng.NumNodes()
}

func (l *lockedEngine) Height() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.eng.Height()
}

func (l *lockedEngine) PageSize() int { return l.eng.PageSize() }

// writeTracker remembers when each in-flight write entered the write
// path (before it takes the writer lock), so /healthz can tell a live
// node from one wedged behind a stuck writer: if the oldest tracked
// write is older than the wedge threshold, queries are queueing behind
// the lock and the node should stop advertising itself healthy.
type writeTracker struct {
	mu     sync.Mutex
	next   uint64
	active map[uint64]time.Time
}

// begin records a write entering the write path and returns its token.
func (t *writeTracker) begin(now time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active == nil {
		t.active = make(map[uint64]time.Time)
	}
	id := t.next
	t.next++
	t.active[id] = now
	return id
}

// end clears a finished write.
func (t *writeTracker) end(id uint64) {
	t.mu.Lock()
	delete(t.active, id)
	t.mu.Unlock()
}

// oldest returns the age of the longest-running in-flight write (zero
// when none are active).
func (t *writeTracker) oldest(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var max time.Duration
	for _, start := range t.active {
		if age := now.Sub(start); age > max {
			max = age
		}
	}
	return max
}

// InsertResponse is the 200 body of /v1/insert.
type InsertResponse struct {
	// OID is the server-assigned object identifier; pass it back to
	// /v1/delete. OIDs are never reused.
	OID uint64 `json:"oid"`
	// Size is the indexed object count after the insert.
	Size int `json:"size"`
}

// DeleteResponse is the 200 body of /v1/delete.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
	// Size is the indexed object count after the delete.
	Size int `json:"size"`
}

// writeRequest is the decoded, validated body of a write endpoint.
type writeRequest struct {
	obj metric.Object
	oid uint64
}

// decodeWrite parses and strictly validates a write body, mirroring
// decodeQueryRequest's discipline: typed 4xx errors, nothing coerced.
func (s *Server) decodeWrite(r io.Reader, insert bool) (writeRequest, *RequestError) {
	var out writeRequest
	var raw struct {
		Object json.RawMessage `json:"object"`
		OID    *uint64         `json:"oid"`
	}
	if aerr := decodeStrict(r, &raw); aerr != nil {
		return out, aerr
	}
	if len(raw.Object) == 0 {
		return out, badRequest("missing_object", "request has no \"object\" field")
	}
	obj, err := s.dec(raw.Object)
	if err != nil {
		return out, badRequest("bad_object", "%v", err)
	}
	out.obj = obj
	if insert {
		if raw.OID != nil {
			return out, badRequest("bad_oid", "\"oid\" is not an insert parameter; the server assigns OIDs")
		}
		return out, nil
	}
	if raw.OID == nil {
		return out, badRequest("missing_oid", "delete request has no \"oid\" field")
	}
	out.oid = *raw.OID
	return out, nil
}

// handleWrite mutates the index under the write lock. The result-cache
// epoch is bumped inside the critical section, so no query can probe a
// pre-write entry after the write is visible — the invalidation the
// cache's exactness contract requires.
func (s *Server) handleWrite(insert bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.cRequests.Inc()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.reject(w, &RequestError{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
				Msg: "write endpoints accept POST only"})
			return
		}
		if s.mut == nil {
			s.reject(w, &RequestError{Status: http.StatusNotImplemented, Code: "read_only",
				Msg: "this engine does not support writes"})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		req, aerr := s.decodeWrite(r.Body, insert)
		if aerr != nil {
			s.reject(w, aerr)
			return
		}
		if insert {
			wid := s.writes.begin(s.clock())
			s.wmu.Lock()
			oid, err := s.mut.Insert(req.obj)
			if err == nil && s.cache != nil {
				s.cache.BumpEpoch()
			}
			s.wmu.Unlock()
			s.writes.end(wid)
			if err != nil {
				s.cErrors.Inc()
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{Code: "internal", Error: err.Error()})
				return
			}
			s.cInserts.Inc()
			writeJSON(w, http.StatusOK, InsertResponse{OID: oid, Size: s.eng.Size()})
			return
		}
		wid := s.writes.begin(s.clock())
		s.wmu.Lock()
		err := s.mut.Delete(req.obj, req.oid)
		if err == nil && s.cache != nil {
			s.cache.BumpEpoch()
		}
		s.wmu.Unlock()
		s.writes.end(wid)
		if err != nil {
			if errors.Is(err, mtree.ErrNotFound) {
				s.reject(w, &RequestError{Status: http.StatusNotFound, Code: "not_found", Msg: err.Error()})
				return
			}
			s.cErrors.Inc()
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{Code: "internal", Error: err.Error()})
			return
		}
		s.cDeletes.Inc()
		writeJSON(w, http.StatusOK, DeleteResponse{Deleted: true, Size: s.eng.Size()})
	}
}

// refreshRecalGauges copies the engine's current drift state into the
// registry so /v1/stats snapshots carry it. Gauges are levels: each
// refresh overwrites the last.
func (s *Server) refreshRecalGauges() {
	rr, ok := s.base.(RecalReporter)
	if !ok {
		return
	}
	st, ok := rr.RecalStats()
	if !ok {
		return
	}
	s.reg.Gauge("recal.window_error").Set(st.WindowError)
	s.reg.Gauge("recal.drift_alarms").Set(float64(st.DriftAlarms))
	s.reg.Gauge("recal.band").Set(st.Band)
	inBand := 0.0
	if st.InBand {
		inBand = 1
	}
	s.reg.Gauge("recal.in_band").Set(inBand)
	for i, b := range st.BiasNodesPerLevel {
		s.reg.Gauge(fmt.Sprintf("recal.bias_nodes.l%d", i)).Set(b)
	}
	for i, b := range st.BiasDistsPerLevel {
		s.reg.Gauge(fmt.Sprintf("recal.bias_dists.l%d", i)).Set(b)
	}
}
