package mcost

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mcost/internal/metric"
)

// Facade boundary validation: every query entry point of Index, on one
// shard and on two, rejects objects the space cannot compare with a typed
// ErrInvalidQuery before any distance call. PR 9 fixed a wrong-length
// Hamming query panicking inside the distance function; the entry points
// that kept their own copy of the check drifted until ExplainRange,
// RangeAnd and RangeOr panicked on a 2-coordinate query to a 4-D index.

func TestIndexRejectsInvalidQueries(t *testing.T) {
	space := VectorSpace("L2", 4)
	objs := randomVectors(100, 4, 3)
	ix, err := Build(space, objs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := BuildSharded(space, objs, Options{Seed: 3}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mix := &Workload{Classes: []QueryClass{{Name: "r", Weight: 1, Radius: 0.5}}}
	wopt := WorkloadOptions{Queries: 4, Seed: 1}
	bad := []struct {
		name string
		q    Object
	}{
		{"nil", nil},
		{"wrong dim", metric.Vector{1, 2}},
		{"wrong type", "not a vector"},
		{"nan coordinate", metric.Vector{0, math.NaN(), 0, 0}},
		{"inf coordinate", metric.Vector{0, 0, math.Inf(1), 0}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			// One bad query poisons a whole batch, predicate list or
			// workload pool, before any traversal.
			qs := []Object{objs[0], tc.q, objs[1]}
			preds := []Pred{{Q: objs[0], Radius: 0.5}, {Q: tc.q, Radius: 0.5}}
			calls := map[string]func() error{
				"Index.Range":            func() error { _, err := ix.Range(tc.q, 0.5); return err },
				"Index.NN":               func() error { _, err := ix.NN(tc.q, 3); return err },
				"Index.NNApprox":         func() error { _, err := ix.NNApprox(tc.q, 3, 0.9); return err },
				"Index.ExplainRange":     func() error { _, _, err := ix.ExplainRange(tc.q, 0.5); return err },
				"Index.RangeAnd":         func() error { _, err := ix.RangeAnd(preds); return err },
				"Index.RangeOr":          func() error { _, err := ix.RangeOr(preds); return err },
				"Index.RunWorkload":      func() error { _, err := ix.RunWorkload(mix, qs, wopt); return err },
				"Index.RangeBatchTraced": func() error { _, err := ix.RangeBatchTraced(ctx, qs, 0.5, QueryBudget{}, nil); return err },
				"Index.NNBatchTraced":    func() error { _, err := ix.NNBatchTraced(ctx, qs, 3, QueryBudget{}, nil); return err },
				"Sharded.Range":          func() error { _, err := sx.Range(tc.q, 0.5); return err },
				"Sharded.NN":             func() error { _, err := sx.NN(tc.q, 3); return err },
				"Sharded.RangeBatch":     func() error { _, err := sx.RangeBatch(qs, 0.5); return err },
				"Sharded.NNBatch":        func() error { _, err := sx.NNBatch(qs, 3); return err },
				"Sharded.RunWorkload":    func() error { _, err := sx.RunWorkload(mix, qs, wopt); return err },
				"Sharded.RangeBatchTraced": func() error {
					_, err := sx.RangeBatchTraced(ctx, qs, 0.5, QueryBudget{}, nil)
					return err
				},
				"Sharded.NNBatchTraced": func() error { _, err := sx.NNBatchTraced(ctx, qs, 3, QueryBudget{}, nil); return err },
			}
			for name, call := range calls {
				if err := callNoPanic(call); !errors.Is(err, ErrInvalidQuery) {
					t.Errorf("%s: err = %v, want ErrInvalidQuery", name, err)
				}
			}
		})
	}
}

// callNoPanic turns a panic into an error, so an entry point that skips
// validation fails the test instead of crashing it.
func callNoPanic(call func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return call()
}

func TestHammingFacadeRejectsWrongLength(t *testing.T) {
	const dim = 12
	rng := rand.New(rand.NewSource(5))
	objs := make([]Object, 80)
	for i := range objs {
		b := make([]byte, dim)
		for j := range b {
			b[j] = byte('0' + rng.Intn(2))
		}
		objs[i] = string(b)
	}
	space := metric.HammingSpace(dim)
	ix, err := Build(space, objs, Options{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The regression: this used to panic inside metric.Hamming.
	if _, err := ix.Range("01", 3); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("short hamming query: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := ix.NN("0101010101010101010101", 3); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("long hamming query: err = %v, want ErrInvalidQuery", err)
	}
	if ms, err := ix.NN(objs[0].(string), 1); err != nil || len(ms) != 1 || ms[0].Distance != 0 {
		t.Fatalf("exact-length query must work: %v %v", ms, err)
	}

	sx, err := BuildSharded(space, objs, Options{Seed: 5, Workers: 1}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sx.Range("01", 3); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("sharded short hamming query: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := sx.NNBatch([]Object{objs[0], "01"}, 2); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("sharded batch with bad query: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := sx.NNBatchTraced(context.Background(), []Object{"01"}, 2, QueryBudget{}, nil); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("sharded NNBatchTraced with bad query: err = %v, want ErrInvalidQuery", err)
	}
}
