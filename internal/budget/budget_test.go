package budget

import (
	"context"
	"errors"
	"testing"
)

func TestNilGuardIsFree(t *testing.T) {
	var g *Guard
	for i := 0; i < 10; i++ {
		if err := g.BeforeFetch(); err != nil {
			t.Fatal(err)
		}
		if err := g.OnDist(); err != nil {
			t.Fatal(err)
		}
	}
	if n, d := g.Spent(); n != 0 || d != 0 {
		t.Errorf("nil guard counted %d/%d", n, d)
	}
}

func TestFromPrediction(t *testing.T) {
	// Rounded up, never truncated: 10.2 × 2 = 20.4 → 21.
	if got := FromPrediction(10.2, 30.1, 2, 0); got != (Budget{MaxNodeReads: 21, MaxDistCalcs: 61}) {
		t.Errorf("FromPrediction(10.2, 30.1, ×2) = %+v", got)
	}
	// A prediction below the floor is raised to it, one above is not.
	if got := FromPrediction(0.4, 50, 1, 3); got != (Budget{MaxNodeReads: 3, MaxDistCalcs: 50}) {
		t.Errorf("FromPrediction(0.4, 50, ×1, floor 3) = %+v", got)
	}
}

func TestNewGuardNilWhenNothingCanTrip(t *testing.T) {
	if g := NewGuard(context.Background(), Budget{}); g != nil {
		t.Error("unlimited budget + Background context should yield a nil guard")
	}
	if g := NewGuard(nil, Budget{}); g != nil {
		t.Error("nil context counts as Background")
	}
	if g := NewGuard(context.Background(), Budget{MaxNodeReads: 1}); g == nil {
		t.Error("a capped budget needs a guard")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if g := NewGuard(ctx, Budget{}); g == nil {
		t.Error("a cancelable context needs a guard")
	}
}

func TestGuardStopsBeforeExcessFetch(t *testing.T) {
	g := NewGuard(context.Background(), Budget{MaxNodeReads: 3})
	for i := 0; i < 3; i++ {
		if err := g.BeforeFetch(); err != nil {
			t.Fatalf("fetch %d within budget refused: %v", i+1, err)
		}
	}
	err := g.BeforeFetch()
	if !errors.Is(err, ErrExceeded) {
		t.Fatalf("got %v, want ErrExceeded", err)
	}
	// The stop happens BEFORE the fetch that would exceed: spend == cap.
	var ex *ExceededError
	if !errors.As(err, &ex) || ex.NodeReads != 3 {
		t.Errorf("exceeded detail = %+v, want NodeReads 3", ex)
	}
	if n, _ := g.Spent(); n != 3 {
		t.Errorf("spent %d node reads, want exactly the cap 3", n)
	}
}

func TestGuardDistRollback(t *testing.T) {
	g := NewGuard(context.Background(), Budget{MaxDistCalcs: 2})
	if err := g.OnDist(); err != nil {
		t.Fatal(err)
	}
	if err := g.OnDist(); err != nil {
		t.Fatal(err)
	}
	if err := g.OnDist(); !errors.Is(err, ErrExceeded) {
		t.Fatalf("got %v, want ErrExceeded", err)
	}
	// The tripping computation is rolled back so the reported spend
	// equals the cap, repeatably.
	if _, d := g.Spent(); d != 2 {
		t.Errorf("spent %d dist calcs, want 2", d)
	}
	if err := g.OnDist(); !errors.Is(err, ErrExceeded) {
		t.Error("guard recovered after exceeding")
	}
}

func TestGuardContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGuard(ctx, Budget{})
	if err := g.BeforeFetch(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := g.BeforeFetch(); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestExceededErrorIs(t *testing.T) {
	err := error(&ExceededError{Limit: Budget{MaxNodeReads: 5}, NodeReads: 5})
	if !errors.Is(err, ErrExceeded) {
		t.Error("ExceededError does not match ErrExceeded")
	}
	if errors.Is(err, context.Canceled) {
		t.Error("ExceededError matches unrelated sentinel")
	}
	if err.Error() == "" {
		t.Error("empty message")
	}
}

func TestUnlimited(t *testing.T) {
	if !(Budget{}).Unlimited() {
		t.Error("zero budget should be unlimited")
	}
	if !(Budget{MaxNodeReads: -1, MaxDistCalcs: -1}).Unlimited() {
		t.Error("negative caps should be unlimited")
	}
	if (Budget{MaxDistCalcs: 1}).Unlimited() {
		t.Error("capped budget reported unlimited")
	}
}
