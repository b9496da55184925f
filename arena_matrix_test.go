package mcost

import (
	"context"
	"errors"
	"testing"

	"mcost/internal/dataset"
)

// The engine equivalence matrix: memory, paged, and arena layouts must
// answer identically — same OIDs, same distances, same traces — across
// vector and string spaces, single and sharded indexes, and every batch
// size. The arena is an optimization, never a semantic.

func sameSets(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].OID != want[i].OID || got[i].Distance != want[i].Distance {
			t.Fatalf("%s: match %d = (%d, %v), want (%d, %v)",
				label, i, got[i].OID, got[i].Distance, want[i].OID, want[i].Distance)
		}
	}
}

type matrixLayout struct {
	name string
	opt  func(base Options) Options
}

func matrixLayouts() []matrixLayout {
	return []matrixLayout{
		{"memory", func(b Options) Options { return b }},
		{"paged", func(b Options) Options {
			b.Storage = StorageOptions{Paged: true, CachePages: 32}
			return b
		}},
		{"arena", func(b Options) Options {
			b.Arena = ArenaOptions{Enabled: true}
			return b
		}},
	}
}

func TestEngineEquivalenceMatrix(t *testing.T) {
	type cell struct {
		name    string
		d       *dataset.Dataset
		queries []Object
		radius  float64
	}
	cells := []cell{
		{"vectors", dataset.PaperClustered(500, 5, 3), dataset.PaperClusteredQueries(12, 5, 3).Queries, 0.35},
		{"words", dataset.Words(400, 4), dataset.WordQueries(12, 4).Queries, 3},
	}
	const k = 7
	base := Options{Seed: 11, PageSize: 1024, Workers: 1}

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			for _, shards := range []int{1, 3} {
				// Reference: the memory layout at this shard count.
				var refRange, refNN [][]Match
				for _, lay := range matrixLayouts() {
					opt := lay.opt(base)
					var (
						rangeOne func(q Object) ([]Match, error)
						nnOne    func(q Object) ([]Match, error)
						rangeB   func(qs []Object) ([][]Match, error)
						nnB      func(qs []Object) ([][]Match, error)
					)
					if shards == 1 {
						ix, err := Build(c.d.Space, c.d.Objects, opt)
						if err != nil {
							t.Fatal(err)
						}
						rangeOne = func(q Object) ([]Match, error) { return ix.Range(q, c.radius) }
						nnOne = func(q Object) ([]Match, error) { return ix.NN(q, k) }
						rangeB = func(qs []Object) ([][]Match, error) {
							return ix.RangeBatchTraced(context.Background(), qs, c.radius, QueryBudget{}, nil)
						}
						nnB = func(qs []Object) ([][]Match, error) {
							return ix.NNBatchTraced(context.Background(), qs, k, QueryBudget{}, nil)
						}
					} else {
						sx, err := BuildSharded(c.d.Space, c.d.Objects, opt, ShardOptions{Shards: shards})
						if err != nil {
							t.Fatal(err)
						}
						rangeOne = func(q Object) ([]Match, error) { return sx.Range(q, c.radius) }
						nnOne = func(q Object) ([]Match, error) { return sx.NN(q, k) }
						rangeB = func(qs []Object) ([][]Match, error) { return sx.RangeBatch(qs, c.radius) }
						nnB = func(qs []Object) ([][]Match, error) { return sx.NNBatch(qs, k) }
					}
					label := func(op string) string {
						return c.name + "/" + lay.name + "/" + op
					}
					gotRange := make([][]Match, len(c.queries))
					gotNN := make([][]Match, len(c.queries))
					for i, q := range c.queries {
						var err error
						if gotRange[i], err = rangeOne(q); err != nil {
							t.Fatal(err)
						}
						if gotNN[i], err = nnOne(q); err != nil {
							t.Fatal(err)
						}
					}
					if refRange == nil {
						refRange, refNN = gotRange, gotNN
					} else {
						for i := range c.queries {
							sameSets(t, label("range"), gotRange[i], refRange[i])
							sameSets(t, label("nn"), gotNN[i], refNN[i])
						}
					}
					// Batched paths, at several batch sizes, against the same
					// reference.
					for _, bs := range []int{1, 5, len(c.queries)} {
						for lo := 0; lo < len(c.queries); lo += bs {
							hi := min(lo+bs, len(c.queries))
							sets, err := rangeB(c.queries[lo:hi])
							if err != nil {
								t.Fatal(err)
							}
							for i, ms := range sets {
								sameSets(t, label("range-batch"), ms, refRange[lo+i])
							}
							sets, err = nnB(c.queries[lo:hi])
							if err != nil {
								t.Fatal(err)
							}
							for i, ms := range sets {
								sameSets(t, label("nn-batch"), ms, refNN[lo+i])
							}
						}
					}
				}
			}
		})
	}
}

// Traces must agree across layouts too: the arena traversal visits the
// same nodes in the same order and computes the same distances.
func TestArenaTraceEquivalence(t *testing.T) {
	d := dataset.PaperClustered(500, 5, 3)
	qs := dataset.PaperClusteredQueries(8, 5, 3).Queries
	base := Options{Seed: 11, PageSize: 1024, Workers: 1}

	var refs []string
	for _, lay := range matrixLayouts() {
		ix, err := Build(d.Space, d.Objects, lay.opt(base))
		if err != nil {
			t.Fatal(err)
		}
		var traces []string
		for _, q := range qs {
			tr := NewQueryTrace()
			if _, err := ix.RangeBatchTraced(context.Background(), []Object{q}, 0.35, QueryBudget{}, tr); err != nil {
				t.Fatal(err)
			}
			traces = append(traces, tr.String())
			tr = NewQueryTrace()
			if _, err := ix.NNBatchTraced(context.Background(), []Object{q}, 7, QueryBudget{}, tr); err != nil {
				t.Fatal(err)
			}
			traces = append(traces, tr.String())
		}
		if refs == nil {
			refs = traces
		} else {
			for i := range traces {
				if traces[i] != refs[i] {
					t.Fatalf("%s: trace %d diverges from memory layout:\n%s\nvs\n%s",
						lay.name, i, traces[i], refs[i])
				}
			}
		}
	}
}

// Budget exhaustion must surface identically through the arena path:
// a typed ErrBudgetExceeded with valid partial results.
func TestArenaBudgetExhaustionFacade(t *testing.T) {
	d := dataset.PaperClustered(500, 5, 3)
	q := dataset.PaperClusteredQueries(1, 5, 3).Queries[0]
	ix, err := Build(d.Space, d.Objects, Options{Seed: 11, PageSize: 1024, Workers: 1, Arena: ArenaOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	b := QueryBudget{MaxNodeReads: 2}
	partial, err := ix.RangeBatchTraced(context.Background(), []Object{q}, 0.5, b, nil)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	full, err := ix.Range(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	inFull := make(map[uint64]float64, len(full))
	for _, m := range full {
		inFull[m.OID] = m.Distance
	}
	for _, ms := range partial {
		for _, m := range ms {
			if dist, ok := inFull[m.OID]; !ok || dist != m.Distance {
				t.Fatalf("partial result (%d, %v) is not part of the full result", m.OID, m.Distance)
			}
		}
	}
}

// Fault injection targets the paged read path; a build that asks for
// both faults and the arena must keep the faulty paged path (the arena
// would serve reads the fault schedule is supposed to hit). The pin:
// with retries disabled and a harsh read-fault schedule, queries DO
// observe storage faults — which could never happen if the arena had
// been frozen over the faulty stack.
func TestArenaDisabledUnderFaultInjection(t *testing.T) {
	d := dataset.PaperClustered(400, 5, 3)
	qs := dataset.PaperClusteredQueries(32, 5, 3).Queries
	ix, err := Build(d.Space, d.Objects, Options{
		Seed: 11, PageSize: 1024, Workers: 1,
		Arena: ArenaOptions{Enabled: true},
		Storage: StorageOptions{
			Faults:        &FaultConfig{Seed: 7, ReadErrorRate: 0.2},
			RetryAttempts: 1, // no absorption: faults must surface
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.SetFaultsEnabled(true)
	sawFault := false
	for _, q := range qs {
		if _, err := ix.Range(q, 0.35); err != nil {
			sawFault = true
			break
		}
	}
	if !sawFault {
		t.Fatal("no query observed a storage fault: reads are not going through the faulty paged stack")
	}
}
