// Package workload runs mixed similarity-query workloads against a
// query engine and scores a cost model's predictions — the
// capacity-planning use the paper motivates: estimate a workload's
// resource consumption from the model before provisioning, then verify
// against execution.
//
// A Workload is a list of weighted query classes (range radii and k-NN
// ks). The runner apportions a query count to the classes by weight
// (largest-remainder, so counts sum exactly to the requested total),
// executes a sampled query stream in batches, accumulates measured node
// reads and distance computations, and compares with the model's
// expectation for the same mix, including a wall-clock projection under
// configurable disk parameters. The engine behind the run is abstract:
// a single M-tree (Run) or anything implementing Engine, such as a
// sharded index (RunEngine).
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"mcost/internal/core"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

// QueryClass is one component of the mix.
type QueryClass struct {
	// Name labels the class in reports ("lookup", "discovery", ...).
	Name string
	// Weight is the relative frequency of the class (any positive
	// scale; weights are normalized).
	Weight float64
	// Radius is the range-query radius; used when K == 0.
	Radius float64
	// K, when positive, makes this a k-NN class and Radius is ignored.
	K int
}

// Workload is a weighted mix of query classes.
type Workload struct {
	Classes []QueryClass
}

// Validate checks the mix.
func (w *Workload) Validate() error {
	if len(w.Classes) == 0 {
		return errors.New("workload: no query classes")
	}
	var total float64
	for i, c := range w.Classes {
		if c.Weight <= 0 {
			return fmt.Errorf("workload: class %d (%s) has weight %g", i, c.Name, c.Weight)
		}
		if c.K < 0 {
			return fmt.Errorf("workload: class %d (%s) has k = %d", i, c.Name, c.K)
		}
		if c.K == 0 && c.Radius < 0 {
			return fmt.Errorf("workload: class %d (%s) has radius %g", i, c.Name, c.Radius)
		}
		total += c.Weight
	}
	if total <= 0 {
		return errors.New("workload: zero total weight")
	}
	return nil
}

// ClassReport compares prediction and measurement for one class.
type ClassReport struct {
	Class    QueryClass
	Queries  int
	Pred     core.CostEstimate
	Measured core.CostEstimate // averages per query
	Results  float64           // average result-set size
}

// Report is the workload summary.
type Report struct {
	Classes []ClassReport
	// PredPerQuery and MeasuredPerQuery are the weight-averaged costs.
	PredPerQuery     core.CostEstimate
	MeasuredPerQuery core.CostEstimate
	// PredMSPerQuery / MeasuredMSPerQuery apply the disk parameters.
	PredMSPerQuery     float64
	MeasuredMSPerQuery float64
}

// Options configures a run.
type Options struct {
	// Queries is the number of executed queries (default 200),
	// apportioned to classes by weight. Must be at least the number of
	// classes so every class executes.
	Queries int
	// Batch groups the executed queries into batches of this size
	// (default 1, the classic per-query loop). Larger batches amortize
	// node reads through the engine's shared-traversal batch path
	// without changing any result.
	Batch int
	// Disk prices the combined cost (default core.PaperDiskParams).
	Disk core.DiskParams
	// Seed drives query sampling.
	Seed int64
	// UseParentDist asks for the measured queries to run with the
	// M-tree's triangle-inequality optimization (default false, matching
	// what the model predicts; see the paper's footnote 2). RunEngine
	// does not read it: the engine owns its query options, and the
	// caller builds it with this one (mcost.Index.RunWorkload does).
	UseParentDist bool
}

// Engine executes batches of similarity queries and meters their cost.
// mcost.Index runs its workloads on its shard set through one.
type Engine interface {
	RangeBatch(qs []metric.Object, radius float64) ([][]mtree.Match, error)
	NNBatch(qs []metric.Object, k int) ([][]mtree.Match, error)
	// Costs returns node reads and distance computations accumulated
	// since ResetCosts.
	Costs() (nodeReads, distCalcs int64)
	ResetCosts()
	// PageSize prices a node read for the wall-clock projection.
	PageSize() int
}

// Predictor supplies the cost model's expectation for each query class.
type Predictor interface {
	PredictRange(radius float64) core.CostEstimate
	PredictNN(k int) core.CostEstimate
}

// Apportion distributes total queries among the classes in proportion
// to their weights by the largest-remainder method, so the counts sum
// to exactly total and every class gets at least one query. Ties in the
// fractional remainders break toward the lower class index. The
// in-process runner and the HTTP driver (server.RunHTTP) both split
// their query counts with it.
func (w *Workload) Apportion(total int) ([]int, error) {
	if total < len(w.Classes) {
		return nil, fmt.Errorf("workload: %d queries cannot cover %d classes", total, len(w.Classes))
	}
	var sum float64
	for _, c := range w.Classes {
		sum += c.Weight
	}
	counts := make([]int, len(w.Classes))
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, len(w.Classes))
	assigned := 0
	for i, c := range w.Classes {
		exact := float64(total) * c.Weight / sum
		counts[i] = int(exact)
		rems[i] = rem{i: i, frac: exact - float64(counts[i])}
		assigned += counts[i]
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for j := 0; assigned < total; j, assigned = (j+1)%len(rems), assigned+1 {
		counts[rems[j].i]++
	}
	// Largest-remainder can still leave a tiny-weight class at zero;
	// move one query from the largest class until every class runs.
	for i := range counts {
		if counts[i] > 0 {
			continue
		}
		biggest := 0
		for j := range counts {
			if counts[j] > counts[biggest] {
				biggest = j
			}
		}
		counts[biggest]--
		counts[i]++
	}
	return counts, nil
}

// RunEngine executes the workload against any Engine and scores the
// Predictor's expectations. Queries are sampled per class from
// queryPool, executed in batches of opt.Batch, and metered through the
// engine's counters.
func RunEngine(eng Engine, pred Predictor, w *Workload, queryPool []metric.Object, opt Options) (*Report, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(queryPool) == 0 {
		return nil, errors.New("workload: empty query pool")
	}
	if opt.Queries == 0 {
		opt.Queries = 200
	}
	if opt.Batch <= 0 {
		opt.Batch = 1
	}
	if opt.Disk == (core.DiskParams{}) {
		opt.Disk = core.PaperDiskParams()
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	var totalWeight float64
	for _, c := range w.Classes {
		totalWeight += c.Weight
	}
	counts, err := w.Apportion(opt.Queries)
	if err != nil {
		return nil, err
	}

	rep := &Report{}
	for ci, c := range w.Classes {
		nq := counts[ci]
		var p core.CostEstimate
		if c.K > 0 {
			p = pred.PredictNN(c.K)
		} else {
			p = pred.PredictRange(c.Radius)
		}
		qs := make([]metric.Object, nq)
		for i := range qs {
			qs[i] = queryPool[rng.Intn(len(queryPool))]
		}
		eng.ResetCosts()
		var results int
		for lo := 0; lo < nq; lo += opt.Batch {
			hi := lo + opt.Batch
			if hi > nq {
				hi = nq
			}
			var (
				sets [][]mtree.Match
				err  error
			)
			if c.K > 0 {
				sets, err = eng.NNBatch(qs[lo:hi], c.K)
			} else {
				sets, err = eng.RangeBatch(qs[lo:hi], c.Radius)
			}
			if err != nil {
				return nil, fmt.Errorf("workload: class %s: %w", c.Name, err)
			}
			for _, ms := range sets {
				results += len(ms)
			}
		}
		reads, dists := eng.Costs()
		measured := core.CostEstimate{
			Nodes: float64(reads) / float64(nq),
			Dists: float64(dists) / float64(nq),
		}
		rep.Classes = append(rep.Classes, ClassReport{
			Class:    c,
			Queries:  nq,
			Pred:     p,
			Measured: measured,
			Results:  float64(results) / float64(nq),
		})
		frac := c.Weight / totalWeight
		rep.PredPerQuery.Nodes += frac * p.Nodes
		rep.PredPerQuery.Dists += frac * p.Dists
		rep.MeasuredPerQuery.Nodes += frac * measured.Nodes
		rep.MeasuredPerQuery.Dists += frac * measured.Dists
	}
	rep.PredMSPerQuery = opt.Disk.TotalMS(rep.PredPerQuery, eng.PageSize())
	rep.MeasuredMSPerQuery = opt.Disk.TotalMS(rep.MeasuredPerQuery, eng.PageSize())
	return rep, nil
}
