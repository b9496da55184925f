package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"
)

// drainTimeout bounds how long Run waits for in-flight requests after a
// signal.
const drainTimeout = 5 * time.Second

// BootingHandler answers for a node whose engine is still building:
// /healthz says 503 "building" and every other route 503s with a typed
// error. Binaries listen with it immediately and swap in the real
// handler when the build completes, so health loops see the node early
// but never route work to it.
func BootingHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "building"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Code: "building", Error: "index is still building; retry shortly"})
	})
	return mux
}

// Listener is how mcost-serve and mcost-router listen: from the moment
// the process starts, answering through BootingHandler until Ready
// swaps in the serving handler, then draining on SIGINT or SIGTERM.
type Listener struct {
	srv     *http.Server
	handler atomic.Value // http.Handler
	failed  chan error
}

// Listen starts serving addr at once, behind BootingHandler.
func Listen(addr string) *Listener {
	l := &Listener{failed: make(chan error, 1)}
	l.handler.Store(BootingHandler())
	l.srv = &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	go func() { l.failed <- l.srv.ListenAndServe() }()
	return l
}

// Ready serves every request from now on with h.
func (l *Listener) Ready(h http.Handler) { l.handler.Store(h) }

// Failed delivers the error that stopped the listener, such as an
// address already in use.
func (l *Listener) Failed() <-chan error { return l.failed }

// Run blocks until the listener fails or the process receives SIGINT
// or SIGTERM. On a signal it prints "<signal>: draining..." to stdout
// and shuts the listener down, giving in-flight requests up to 5 s.
// Either way it then calls closers in order, and returns the
// listener's error or a failed drain's.
func (l *Listener) Run(closers ...func()) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var err error
	select {
	case err = <-l.failed:
	case s := <-sig:
		fmt.Printf("\n%v: draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if serr := l.srv.Shutdown(ctx); serr != nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
	}
	for _, c := range closers {
		c()
	}
	return err
}
