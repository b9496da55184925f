// Package budget implements cost-budgeted, context-aware query
// admission: a Budget caps the node reads and distance computations one
// query may spend, and a Guard enforces the cap (plus context
// cancellation) inside index traversals. The budgets are meant to be
// seeded from the paper's cost models — L-MCM predicts a query's node
// reads and distance computations before it runs, so a budget of
// "prediction × slack" turns the model into admission control: a query
// whose observed cost blows past its prediction is stopped and returns
// its partial result set with a typed error instead of degenerating
// into the near-linear scans metric trees suffer in high dimensions
// (Pestov, arXiv:0812.0146).
package budget

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Budget caps per-query work. A zero or negative field is unlimited.
type Budget struct {
	// MaxNodeReads caps node fetches (the paper's I/O cost unit).
	MaxNodeReads int64
	// MaxDistCalcs caps distance computations (the CPU cost unit).
	MaxDistCalcs int64
}

// Unlimited reports whether the budget caps nothing.
func (b Budget) Unlimited() bool { return b.MaxNodeReads <= 0 && b.MaxDistCalcs <= 0 }

// FromPrediction is the one budget derivation: predicted node reads and
// distance computations × slack, each rounded up and raised to at least
// floor. A tree query floors at the tree height so it can always walk
// root to leaf; 0 floors nothing. Callers map their own "no budget"
// conventions (a negative server slack, a CLI slack ≤ 0) to the zero
// Budget before calling.
func FromPrediction(nodes, dists, slack float64, floor int) Budget {
	limit := func(pred float64) int64 {
		c := math.Ceil(pred * slack)
		if c < float64(floor) {
			c = float64(floor)
		}
		return int64(c)
	}
	return Budget{MaxNodeReads: limit(nodes), MaxDistCalcs: limit(dists)}
}

// ErrExceeded is the sentinel for budget-stopped queries. Match with
// errors.Is; the concrete *ExceededError carries the spend.
var ErrExceeded = errors.New("budget: query budget exceeded")

// ExceededError reports a query stopped by its budget. The query's
// partial result set is still returned alongside this error — results
// found before the stop are valid, just not complete.
type ExceededError struct {
	// Limit is the budget that stopped the query.
	Limit Budget
	// NodeReads and DistCalcs count the work done before the stop.
	NodeReads, DistCalcs int64
}

// Error implements error.
func (e *ExceededError) Error() string {
	return fmt.Sprintf("budget: query budget exceeded (%d node reads / max %d, %d distance computations / max %d)",
		e.NodeReads, e.Limit.MaxNodeReads, e.DistCalcs, e.Limit.MaxDistCalcs)
}

// Is reports errors.Is equivalence with ErrExceeded.
func (e *ExceededError) Is(target error) bool { return target == ErrExceeded }

// Guard enforces a budget and a context inside one query traversal. A
// nil *Guard is fully disabled: every check inlines to a nil test, so
// unguarded queries pay nothing — the same zero-cost-when-off contract
// as obs.Trace. A Guard belongs to one query on one goroutine; it is
// not safe to share.
type Guard struct {
	ctx       context.Context
	b         Budget
	nodeReads int64
	distCalcs int64
}

// NewGuard returns a guard for the context and budget, or nil when
// neither can ever trip: an unlimited budget under a context that
// cannot be canceled (Done() == nil, e.g. context.Background()) needs
// no checks. A nil ctx counts as context.Background().
func NewGuard(ctx context.Context, b Budget) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	if b.Unlimited() && ctx.Done() == nil {
		return nil
	}
	return &Guard{ctx: ctx, b: b}
}

// BeforeFetch gates one node fetch: it reports the context's error if
// the query is canceled or past its deadline, and a typed
// *ExceededError if the fetch would exceed MaxNodeReads. On success the
// fetch is counted.
func (g *Guard) BeforeFetch() error {
	if g == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		return err
	}
	if g.b.MaxNodeReads > 0 && g.nodeReads+1 > g.b.MaxNodeReads {
		return g.exceeded()
	}
	g.nodeReads++
	return nil
}

// OnDist counts one distance computation and reports a typed
// *ExceededError once the count passes MaxDistCalcs.
func (g *Guard) OnDist() error {
	if g == nil {
		return nil
	}
	g.distCalcs++
	if g.b.MaxDistCalcs > 0 && g.distCalcs > g.b.MaxDistCalcs {
		g.distCalcs--
		return g.exceeded()
	}
	return nil
}

func (g *Guard) exceeded() error {
	return &ExceededError{Limit: g.b, NodeReads: g.nodeReads, DistCalcs: g.distCalcs}
}

// Spent returns the work counted so far.
func (g *Guard) Spent() (nodeReads, distCalcs int64) {
	if g == nil {
		return 0, 0
	}
	return g.nodeReads, g.distCalcs
}
