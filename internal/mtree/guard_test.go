package mtree_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"mcost/internal/budget"
	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/shard"
)

// queryEngine is the query surface every engine shares: the tree (node
// store or frozen arena), the scan, and — through setEngine — the
// sharded set.
type queryEngine interface {
	Range(q metric.Object, radius float64, opt mtree.QueryOptions) ([]mtree.Match, error)
	NN(q metric.Object, k int, opt mtree.QueryOptions) ([]mtree.Match, error)
	RangeBatch(qs []metric.Object, radius float64, opt mtree.QueryOptions) ([][]mtree.Match, error)
	NNBatch(qs []metric.Object, k int, opt mtree.QueryOptions) ([][]mtree.Match, error)
	NodeReads() int64
	DistanceCount() int64
}

// setEngine runs a shard.Set behind the mtree option struct. Its budget
// caps each shard on its own.
type setEngine struct{ set *shard.Set }

func setOpt(o mtree.QueryOptions) shard.QueryOptions {
	return shard.QueryOptions{UseParentDist: o.UseParentDist, Budget: o.Budget, Ctx: o.Ctx, Workers: 1}
}

func (s setEngine) Range(q metric.Object, r float64, o mtree.QueryOptions) ([]mtree.Match, error) {
	return s.set.Range(q, r, setOpt(o))
}

func (s setEngine) NN(q metric.Object, k int, o mtree.QueryOptions) ([]mtree.Match, error) {
	return s.set.NN(q, k, setOpt(o))
}

func (s setEngine) RangeBatch(qs []metric.Object, r float64, o mtree.QueryOptions) ([][]mtree.Match, error) {
	return s.set.RangeBatch(qs, r, setOpt(o))
}

func (s setEngine) NNBatch(qs []metric.Object, k int, o mtree.QueryOptions) ([][]mtree.Match, error) {
	return s.set.NNBatch(qs, k, setOpt(o))
}

func (s setEngine) NodeReads() int64 { n, _ := s.set.Costs(); return n }

func (s setEngine) DistanceCount() int64 { _, d := s.set.Costs(); return d }

func sameMatch(a, b mtree.Match) bool { return a.OID == b.OID && a.Distance == b.Distance }

// TestEveryEntryPointHonorsBudgetAndCtx runs every query operation of
// every engine under a budget of half its unbudgeted cost (per shard on
// the set), and under a canceled context, through the one entry point
// each operation has. A budget stop must surface ErrBudgetExceeded with
// a true partial answer: range matches a subset of the full answer, NN
// neighbors true objects at true distances, closest first, batches one
// slot per query — and on one engine a k-NN batch keeps the queries it
// finished complete and leaves the ones it never started empty. A
// canceled Ctx must surface context.Canceled.
func TestEveryEntryPointHonorsBudgetAndCtx(t *testing.T) {
	d := dataset.PaperClustered(1500, 6, 4242)
	qs := dataset.PaperClusteredQueries(16, 6, 4242).Queries
	const radius, k, shards = 0.3, 5, 3
	preds := []mtree.Pred{{Q: qs[0], Radius: radius}, {Q: qs[1], Radius: radius}}

	tree := func(arena bool) *mtree.Tree {
		tr, err := mtree.New(mtree.Options{Space: d.Space, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(d.Objects); err != nil {
			t.Fatal(err)
		}
		if arena {
			if err := tr.FreezeArena(mtree.ArenaConfig{}); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	scan, err := mtree.NewScan(d.Space, d.Objects, 1024)
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Build(d.Space, d.Objects, shard.Options{Shards: shards, Assign: shard.Pivot, PageSize: 1024, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name   string
		e      queryEngine
		shards int64
	}{
		{"tree-memory", tree(false), 1},
		{"tree-arena", tree(true), 1},
		{"scan", scan, 1},
		{"set", setEngine{set}, shards},
	}

	one := func(ms []mtree.Match, err error) ([][]mtree.Match, error) { return [][]mtree.Match{ms}, err }
	ops := []struct {
		name     string
		nn       bool
		treeOnly bool
		queries  []metric.Object // the query each result slot answers
		run      func(e queryEngine, opt mtree.QueryOptions) ([][]mtree.Match, error)
	}{
		{"range", false, false, qs[:1], func(e queryEngine, opt mtree.QueryOptions) ([][]mtree.Match, error) {
			return one(e.Range(qs[0], radius, opt))
		}},
		{"nn", true, false, qs[:1], func(e queryEngine, opt mtree.QueryOptions) ([][]mtree.Match, error) {
			return one(e.NN(qs[0], k, opt))
		}},
		{"range-batch", false, false, qs, func(e queryEngine, opt mtree.QueryOptions) ([][]mtree.Match, error) {
			return e.RangeBatch(qs, radius, opt)
		}},
		{"nn-batch", true, false, qs, func(e queryEngine, opt mtree.QueryOptions) ([][]mtree.Match, error) {
			return e.NNBatch(qs, k, opt)
		}},
		{"range-and", false, true, nil, func(e queryEngine, opt mtree.QueryOptions) ([][]mtree.Match, error) {
			return one(e.(*mtree.Tree).RangeAnd(preds, opt))
		}},
		{"range-or", false, true, nil, func(e queryEngine, opt mtree.QueryOptions) ([][]mtree.Match, error) {
			return one(e.(*mtree.Tree).RangeOr(preds, opt))
		}},
	}

	partials, finished := 0, 0
	for _, eng := range engines {
		for _, op := range ops {
			if _, isTree := eng.e.(*mtree.Tree); op.treeOnly && !isTree {
				continue
			}
			name := eng.name + "/" + op.name
			opt := mtree.QueryOptions{UseParentDist: true}
			nodes, dists := eng.e.NodeReads(), eng.e.DistanceCount()
			full, err := op.run(eng.e, opt)
			if err != nil {
				t.Fatalf("%s: unbudgeted: %v", name, err)
			}
			nodes, dists = eng.e.NodeReads()-nodes, eng.e.DistanceCount()-dists
			half := func(n int64) int64 { return max(1, n/(2*eng.shards)) }

			for _, b := range []budget.Budget{{MaxNodeReads: half(nodes)}, {MaxDistCalcs: half(dists)}} {
				opt.Budget = b
				got, err := op.run(eng.e, opt)
				if !errors.Is(err, mtree.ErrBudgetExceeded) {
					t.Fatalf("%s %+v: err = %v, want a budget stop", name, b, err)
				}
				if len(got) != len(full) {
					t.Fatalf("%s %+v: %d result slots, want %d", name, b, len(got), len(full))
				}
				inflight := -1
				for i, ms := range got {
					partials += len(ms)
					if !op.nn {
						for _, m := range ms {
							if !slices.ContainsFunc(full[i], func(f mtree.Match) bool { return sameMatch(f, m) }) {
								t.Fatalf("%s %+v: slot %d: partial match %+v is not in the full answer", name, b, i, m)
							}
						}
						continue
					}
					for j, m := range ms {
						if d.Space.Distance(op.queries[i], d.Objects[m.OID]) != m.Distance {
							t.Fatalf("%s %+v: slot %d: OID %d at %g is not at its true distance", name, b, i, m.OID, m.Distance)
						}
						if j > 0 && ms[j-1].Distance > m.Distance {
							t.Fatalf("%s %+v: slot %d: neighbors out of order", name, b, i)
						}
					}
					if eng.shards > 1 || len(op.queries) == 1 {
						continue // the set's per-shard stops keep no batch order
					}
					switch {
					case inflight < 0 && slices.EqualFunc(ms, full[i], sameMatch):
						finished++
					case inflight < 0:
						inflight = i
					case len(ms) > 0:
						t.Fatalf("%s %+v: slot %d answered after the batch stopped at slot %d", name, b, i, inflight)
					}
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := op.run(eng.e, mtree.QueryOptions{UseParentDist: true, Ctx: ctx}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: canceled Ctx: err = %v, want context.Canceled", name, err)
			}
		}
	}
	if partials == 0 || finished == 0 {
		t.Fatalf("%d partial matches, %d finished batch queries: the budgets prove nothing", partials, finished)
	}
}
