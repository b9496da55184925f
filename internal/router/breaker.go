package router

import (
	"sync"
	"time"

	"mcost/internal/obs"
)

// Per-endpoint circuit breaker. Failures — query-path errors and failed
// health probes alike — accumulate; at the threshold the breaker opens
// and the endpoint stops receiving work for a cooldown, after which a
// single half-open probe decides between closing (success) and another
// full cooldown (failure). The router's health loop supplies a steady
// stream of cheap probes, so a recovered node closes its breaker within
// one polling interval even with no query traffic. Each breaker's state
// is a router.breaker.s<shard>.e<endpoint> gauge on /v1/stats.

// breakerState is also the gauge's value: 0 closed, 1 open, 2 half-open.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type breaker struct {
	threshold int
	cooldown  time.Duration
	opens     *obs.Counter // shared router.breaker_opens counter
	gauge     *obs.Gauge   // this endpoint's state

	mu        sync.Mutex
	state     breakerState
	fails     int
	openUntil time.Time
}

func newBreaker(threshold int, cooldown time.Duration, opens *obs.Counter, gauge *obs.Gauge) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, opens: opens, gauge: gauge}
}

// set moves the breaker to state. Caller holds b.mu.
func (b *breaker) set(state breakerState) {
	b.state = state
	b.gauge.Set(float64(state))
}

// allow reports whether a request may be sent through this endpoint
// now. An open breaker whose cooldown has expired transitions to
// half-open and admits the caller as its probe.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed, breakerHalfOpen:
		return true
	default: // open
		if now.Before(b.openUntil) {
			return false
		}
		b.set(breakerHalfOpen)
		return true
	}
}

// success records a completed request or health probe: the breaker
// closes and the failure streak resets.
func (b *breaker) success() {
	b.mu.Lock()
	b.set(breakerClosed)
	b.fails = 0
	b.mu.Unlock()
}

// failure records a failed request or probe. A half-open breaker
// reopens immediately; a closed one opens at the threshold.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold) {
		b.set(breakerOpen)
		b.openUntil = now.Add(b.cooldown)
		b.fails = 0
		b.opens.Inc()
	}
}
