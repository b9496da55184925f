package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mcost/internal/metric"
)

// Every failed call is one *ClientError: the status, the ErrorResponse
// code, retry_after_ms, and whether another attempt is worthwhile.
func TestClientErrors(t *testing.T) {
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	answer := func(status int, body ErrorResponse) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, status, body)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	serving := httptest.NewServer(newTestServer(t, Config{}).Handler())
	t.Cleanup(serving.Close)
	booting := httptest.NewServer(BootingHandler())
	t.Cleanup(booting.Close)

	ctx := context.Background()
	rangeAt := func(q metric.Object) func(*Client) error {
		return func(c *Client) error { _, err := c.Range(ctx, q, 0.1); return err }
	}
	cases := []struct {
		name   string
		base   string
		call   func(*Client) error
		status int
		code   string
		after  int64
		retry  bool
	}{
		{"transport", closed.URL, rangeAt(metric.Vector{0, 0, 0, 0}), 0, "", 0, true},
		{"overloaded", answer(http.StatusTooManyRequests, ErrorResponse{Code: "overloaded", RetryAfterMS: 250}),
			rangeAt(metric.Vector{0, 0, 0, 0}), 429, "overloaded", 250, true},
		{"building", booting.URL, rangeAt(metric.Vector{0, 0, 0, 0}), 503, "building", 0, true},
		{"internal", answer(http.StatusInternalServerError, ErrorResponse{Code: "internal", Error: "synthetic"}),
			rangeAt(metric.Vector{0, 0, 0, 0}), 500, "internal", 0, true},
		{"bad_query", serving.URL, rangeAt("nope"), 400, "bad_query", 0, false},
		{"no_model", serving.URL, func(c *Client) error { _, err := c.Model(ctx); return err }, 404, "no_model", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call(NewClient(tc.base, nil))
			var ce *ClientError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T), want a *ClientError", err, err)
			}
			if ce.Status != tc.status || ce.Code != tc.code || ce.RetryAfterMS != tc.after || ce.Retry != tc.retry {
				t.Errorf("got status %d code %q retry_after_ms %d retry %v, want %d %q %d %v",
					ce.Status, ce.Code, ce.RetryAfterMS, ce.Retry, tc.status, tc.code, tc.after, tc.retry)
			}
		})
	}
}

// An answer longer than the cap is a permanent body_too_large, not a
// truncated body that fails to decode and looks worth a retry. One at
// the cap decodes.
func TestClientCapsTheAnswer(t *testing.T) {
	var matches []string
	for i := 0; i < 200; i++ {
		matches = append(matches, fmt.Sprintf(`{"oid":%d,"distance":0.5,"object":[0.1,0.2,0.3,0.4]}`, i))
	}
	body := `{"matches":[` + strings.Join(matches, ",") + `]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(body))
	}))
	defer ts.Close()
	defer func(old int64) { maxResponseBytes = old }(maxResponseBytes)
	c := NewClient(ts.URL, nil)

	maxResponseBytes = int64(len(body))
	qr, err := c.Range(context.Background(), metric.Vector{0, 0, 0, 0}, 1)
	if err != nil || len(qr.Matches) != 200 {
		t.Fatalf("answer at the cap: %v", err)
	}

	maxResponseBytes = int64(len(body)) - 1
	_, err = c.Range(context.Background(), metric.Vector{0, 0, 0, 0}, 1)
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Code != "body_too_large" || ce.Retry {
		t.Fatalf("answer one byte over the cap: %v, want a permanent body_too_large", err)
	}
}
