package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mcost/internal/server"
	"mcost/internal/shard"
)

// The wire layer between router and shard nodes. Match objects stay
// json.RawMessage end to end: the router never re-encodes what a node
// returned, so distances and coordinates reach the client bit-identical
// to what the shard tree computed.

// nodeMatch is one match as a shard node returns it.
type nodeMatch struct {
	OID      uint64          `json:"oid"`
	Distance float64         `json:"distance"`
	Object   json.RawMessage `json:"object"`
}

// nodeResponse is the part of a shard node's 200 body the router
// reads (the server.QueryResponse shape, with objects kept raw).
type nodeResponse struct {
	Matches  []nodeMatch `json:"matches"`
	Partial  bool        `json:"partial,omitempty"`
	Degraded string      `json:"degraded,omitempty"`
}

// nodeError classifies a failed shard call: transient failures (network
// errors, timeouts, 5xx, 429 sheds) are worth a retry or a failover;
// permanent ones (4xx) are not — the node understood the request and
// rejected it.
type nodeError struct {
	status    int // 0 for transport errors
	code      string
	msg       string
	transient bool
}

func (e *nodeError) Error() string {
	if e.status == 0 {
		return e.msg
	}
	return fmt.Sprintf("%d %s: %s", e.status, e.code, e.msg)
}

// call sends one request to a node endpoint under timeout and returns
// up to limit bytes of its 200 body. Any other status is a *nodeError
// carrying the node's typed error code.
func (rt *Router) call(ctx context.Context, method, url string, body []byte, timeout time.Duration, limit int64) ([]byte, *nodeError) {
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, &nodeError{msg: err.Error(), transient: false}
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := rt.client.Do(req)
	if err != nil {
		return nil, &nodeError{msg: err.Error(), transient: true}
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(res.Body, limit))
	if err != nil {
		return nil, &nodeError{msg: err.Error(), transient: true}
	}
	if res.StatusCode != http.StatusOK {
		var apiErr server.ErrorResponse
		code := "http_error"
		if json.Unmarshal(raw, &apiErr) == nil && apiErr.Code != "" {
			code = apiErr.Code
		}
		return nil, &nodeError{
			status: res.StatusCode, code: code, msg: apiErr.Error,
			// 429 sheds and every 5xx are worth another attempt; other 4xx
			// mean the node rejected a request it understood.
			transient: res.StatusCode >= 500 || res.StatusCode == http.StatusTooManyRequests,
		}
	}
	return raw, nil
}

// postQuery sends one query body to one node endpoint and decodes the
// result. timeout bounds this single attempt.
func (rt *Router) postQuery(ctx context.Context, base, path string, body []byte, timeout time.Duration) (*nodeResponse, *nodeError) {
	raw, nerr := rt.call(ctx, http.MethodPost, base+path, body, timeout, maxNodeBody)
	if nerr != nil {
		return nil, nerr
	}
	var out nodeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, &nodeError{msg: fmt.Sprintf("bad node response: %v", err), transient: true}
	}
	return &out, nil
}

// fetchSummary GETs /v1/model from each endpoint of a shard group until
// one serves the shard summary.
func (rt *Router) fetchSummary(ctx context.Context, eps []string) (*shard.Summary, error) {
	var lastErr error
	for _, base := range eps {
		var sum shard.Summary
		raw, nerr := rt.call(ctx, http.MethodGet, base+"/v1/model", nil, modelTimeout, 16<<20)
		if nerr != nil {
			lastErr = fmt.Errorf("%s/v1/model: %w", base, nerr)
		} else if err := json.Unmarshal(raw, &sum); err != nil {
			lastErr = fmt.Errorf("%s/v1/model: %v", base, err)
		} else {
			return &sum, nil
		}
	}
	return nil, lastErr
}

// probeHealth GETs one endpoint's /healthz; 200 means routable.
func (rt *Router) probeHealth(base string) bool {
	_, nerr := rt.call(context.Background(), http.MethodGet, base+"/healthz", nil, rt.cfg.HealthTimeout, 1<<16)
	return nerr == nil
}
