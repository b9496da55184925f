package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"mcost/internal/metric"
	"mcost/internal/shard"
)

// Client speaks the /v1 API of one endpoint, an mcost-serve node or an
// mcost-router. It is where a /v1 answer is decoded: the router's node
// calls, the closed-loop HTTP driver (RunHTTP) and the cluster tests
// all read the wire through it. A match's object stays the raw JSON the
// endpoint wrote (a json.RawMessage in MatchJSON.Object), so a relay
// such as the router writes it back out byte for byte.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the endpoint at base, e.g.
// "http://127.0.0.1:8081" (no trailing slash). hc issues the requests;
// nil uses http.DefaultClient. Deadlines ride on each call's context.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// maxResponseBytes caps the answer the client reads. A longer one is a
// permanent body_too_large error: reading it again would meet the same
// cap.
var maxResponseBytes int64 = 64 << 20

// ClientError is every failed call: a transport error (Status 0), a
// non-200 answer with its ErrorResponse code and retry_after_ms, or a
// 200 the client could not read. Retry says whether another attempt is
// worthwhile: yes for transport errors, 5xx and 429 sheds; no for other
// 4xx, where the endpoint understood the request and refused it, and
// for an answer over the size cap.
type ClientError struct {
	Status       int
	Code         string
	Msg          string
	RetryAfterMS int64
	Retry        bool
}

func (e *ClientError) Error() string {
	if e.Status == 0 {
		return e.Msg
	}
	return fmt.Sprintf("%d %s: %s", e.Status, e.Code, e.Msg)
}

// queryBody is the request body of /v1/range (Radius set) and /v1/nn
// (K set).
type queryBody struct {
	Query  metric.Object `json:"query"`
	Radius *float64      `json:"radius,omitempty"`
	K      *int          `json:"k,omitempty"`
}

// writeBody is the request body of /v1/insert (no OID) and /v1/delete.
type writeBody struct {
	Object metric.Object `json:"object"`
	OID    *uint64       `json:"oid,omitempty"`
}

// Range asks for every object within radius of q. A json.RawMessage q
// is sent as it is.
func (c *Client) Range(ctx context.Context, q metric.Object, radius float64) (*QueryResponse, error) {
	return fetch(ctx, c, http.MethodPost, "/v1/range", queryBody{Query: q, Radius: &radius}, DecodeQueryResponse)
}

// NN asks for the k nearest neighbours of q.
func (c *Client) NN(ctx context.Context, q metric.Object, k int) (*QueryResponse, error) {
	return fetch(ctx, c, http.MethodPost, "/v1/nn", queryBody{Query: q, K: &k}, DecodeQueryResponse)
}

// Insert adds obj and returns the OID the endpoint assigned.
func (c *Client) Insert(ctx context.Context, obj metric.Object) (*InsertResponse, error) {
	return fetch(ctx, c, http.MethodPost, "/v1/insert", writeBody{Object: obj}, decode[InsertResponse])
}

// Delete removes the object inserted as oid.
func (c *Client) Delete(ctx context.Context, obj metric.Object, oid uint64) (*DeleteResponse, error) {
	return fetch(ctx, c, http.MethodPost, "/v1/delete", writeBody{Object: obj, OID: &oid}, decode[DeleteResponse])
}

// Model fetches a shard node's F̂/L-MCM summary.
func (c *Client) Model(ctx context.Context) (*shard.Summary, error) {
	return fetch(ctx, c, http.MethodGet, "/v1/model", nil, decode[shard.Summary])
}

// Health reports whether /healthz answers 200; an endpoint that is
// building or wedged answers 503, a retryable error.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	return err
}

// decode parses a 200 body into a T.
func decode[T any](raw []byte) (*T, error) {
	var out T
	return &out, json.Unmarshal(raw, &out)
}

// fetch runs c.do and decodes its 200 body. A 200 that does not decode
// is retryable: a node failing mid-answer writes one.
func fetch[T any](ctx context.Context, c *Client, method, path string, in interface{}, parse func([]byte) (*T, error)) (*T, error) {
	raw, err := c.do(ctx, method, path, in)
	if err != nil {
		return nil, err
	}
	out, err := parse(raw)
	if err != nil {
		return nil, &ClientError{Status: http.StatusOK, Code: "bad_response", Msg: err.Error(), Retry: true}
	}
	return out, nil
}

// do sends one request, with in as its JSON body when non-nil, and
// returns the 200 body. Anything else is a *ClientError.
func (c *Client) do(ctx context.Context, method, path string, in interface{}) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, &ClientError{Msg: err.Error()}
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, &ClientError{Msg: err.Error()}
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, &ClientError{Msg: err.Error(), Retry: true}
	}
	defer res.Body.Close()
	// One byte past the cap tells a full answer from a cut one.
	raw, err := io.ReadAll(io.LimitReader(res.Body, maxResponseBytes+1))
	if err != nil {
		return nil, &ClientError{Msg: err.Error(), Retry: true}
	}
	if int64(len(raw)) > maxResponseBytes {
		return nil, &ClientError{Status: res.StatusCode, Code: "body_too_large",
			Msg: fmt.Sprintf("answer exceeds %d bytes", maxResponseBytes)}
	}
	if res.StatusCode != http.StatusOK {
		var er ErrorResponse
		code := "http_error"
		if json.Unmarshal(raw, &er) == nil && er.Code != "" {
			code = er.Code
		}
		return nil, &ClientError{
			Status: res.StatusCode, Code: code, Msg: er.Error, RetryAfterMS: er.RetryAfterMS,
			Retry: res.StatusCode >= 500 || res.StatusCode == http.StatusTooManyRequests,
		}
	}
	return raw, nil
}

// DecodeQueryResponse decodes a /v1/range or /v1/nn 200 body, keeping
// each match's object as the json.RawMessage the endpoint wrote.
func DecodeQueryResponse(raw []byte) (*QueryResponse, error) {
	var wire struct {
		QueryResponse
		Matches []struct {
			OID      uint64          `json:"oid"`
			Distance float64         `json:"distance"`
			Object   json.RawMessage `json:"object"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, err
	}
	resp := wire.QueryResponse
	resp.Matches = make([]MatchJSON, len(wire.Matches))
	for i, m := range wire.Matches {
		resp.Matches[i] = MatchJSON{OID: m.OID, Distance: m.Distance, Object: m.Object}
	}
	return &resp, nil
}
