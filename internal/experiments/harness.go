// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4): dataset inventory (Table 1), homogeneity
// indices (Section 2.1), range-query cost validation versus
// dimensionality (Figure 1), nearest-neighbor cost validation (Figure
// 2), text-dataset validation (Figure 3), radius sweeps (Figure 4), and
// node-size tuning (Figure 5); plus the Section 5 vp-tree model
// validation and ablations of design choices. Each experiment returns
// machine-readable rows and renders an aligned text table, so the same
// code backs the command-line driver, the benchmark harness, and the
// tests.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"mcost/internal/budget"
	"mcost/internal/core"
	"mcost/internal/dataset"
	"mcost/internal/distdist"
	"mcost/internal/histogram"
	"mcost/internal/metric"
	"mcost/internal/mtree"
	"mcost/internal/obs"
	"mcost/internal/pager"
	"mcost/internal/parallel"
)

// Config holds the shared experiment parameters. Zero values select the
// paper's setup scaled to laptop runtimes; the command-line driver can
// raise N and Queries to the paper's exact numbers.
type Config struct {
	// N is the dataset size (default 10,000 — the paper's lower bound).
	N int
	// Queries is the number of query objects averaged per measurement
	// (default 200; the paper uses 1000).
	Queries int
	// PageSize is the M-tree node size in bytes (default 4096, as in
	// the paper).
	PageSize int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the goroutines used for distance-distribution
	// estimation and measured query batches (0 = runtime.NumCPU()).
	// Results are identical at any worker count: estimation shards are
	// merged as integer counts and per-query measurements reduce in
	// query order.
	Workers int
	// IncludeTrace embeds the merged raw query trace in JSON outputs
	// that support it (currently the residuals experiment).
	IncludeTrace bool
	// Paged mounts experiment trees on the checksummed paged stack
	// instead of in-memory nodes. Tree structure and every measured
	// number are identical (TestGoldenStorageInvariance pins this); only
	// wall-clock time changes.
	Paged bool
	// CachePages adds an LRU page cache of this many pages (implies
	// Paged semantics only when Paged or Faults is set).
	CachePages int
	// RetryAttempts bounds per-page-operation retries (0 = default 3).
	RetryAttempts int
	// Faults, when non-nil, arms seeded fault injection during the
	// measurement phase (builds stay clean). Transient faults are
	// absorbed by the retry layer; injected corruption aborts the
	// experiment with a typed error.
	Faults *pager.FaultConfig
	// BudgetSlack, when > 0, runs measured queries under a budget of
	// the L-MCM prediction times this factor; budget-stopped queries
	// contribute their partial results.
	BudgetSlack float64
	// RecalWindow is the sliding-window size for the recal experiment's
	// recalibrator (0 = the recal package default, 64).
	RecalWindow int
	// RecalBand is the drift-alarm error band for the recal experiment
	// (0 = the recal package default, 0.5).
	RecalBand float64
}

func (c Config) storageEnabled() bool { return c.Paged || c.Faults != nil }

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 10_000
	}
	if c.Queries == 0 {
		c.Queries = 200
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := len(t.Columns) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func pct(est, actual float64) string {
	if actual == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(est-actual)/actual)
}

// built bundles a dataset with its bulk-loaded tree, estimated distance
// distribution, and fitted cost model — the per-dataset setup every
// experiment repeats.
type built struct {
	d       *dataset.Dataset
	tr      *mtree.Tree
	stack   *pager.Stack // non-nil only with Config storage enabled
	f       *histogram.Histogram
	stats   *mtree.Stats
	model   *core.MTreeModel
	workers int
	slack   float64 // Config.BudgetSlack
}

// buildFor indexes the dataset per the paper's setup: BulkLoading, the
// configured node size, F̂ from sampled pairs with the default bin
// count (100 continuous / 25 edit). With Config storage enabled the
// tree mounts the checksummed page stack; fault injection (if armed)
// stays off during the build and switches on for the measurement phase.
func buildFor(d *dataset.Dataset, cfg Config) (*built, error) {
	mo := mtree.Options{
		Space:    d.Space,
		PageSize: cfg.PageSize,
		Seed:     cfg.Seed,
	}
	var stack *pager.Stack
	if cfg.storageEnabled() {
		codec, err := mtree.CodecFor(d.Objects[0])
		if err != nil {
			return nil, err
		}
		pageSize := cfg.PageSize
		if pageSize == 0 {
			pageSize = 4096
		}
		stack, err = pager.NewMemStack(pager.StackOptions{
			PageSize:   mtree.PhysPageSize(pageSize),
			CachePages: cfg.CachePages,
			Retry:      pager.RetryOptions{Attempts: cfg.RetryAttempts},
			Faults:     cfg.Faults,
		})
		if err != nil {
			return nil, err
		}
		if stack.Faulty != nil {
			stack.Faulty.SetEnabled(false)
		}
		mo.Pager = stack.Top
		mo.Codec = codec
	}
	tr, err := mtree.New(mo)
	if err != nil {
		return nil, err
	}
	if err := tr.BulkLoad(d.Objects); err != nil {
		return nil, err
	}
	if stack != nil && stack.Faulty != nil {
		stack.Faulty.SetEnabled(true)
	}
	stats, err := tr.CollectStats()
	if err != nil {
		return nil, err
	}
	f, err := distdist.Estimate(d, distdist.Options{Seed: cfg.Seed + 1, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	model, err := core.NewMTreeModel(f, stats)
	if err != nil {
		return nil, err
	}
	return &built{
		d: d, tr: tr, stack: stack, f: f, stats: stats, model: model,
		workers: cfg.Workers, slack: cfg.BudgetSlack,
	}, nil
}

// budgetFor converts a model prediction into a query budget under the
// configured slack (zero budget when slack is unset).
func (b *built) budgetFor(est core.CostEstimate) budget.Budget {
	if b.slack <= 0 {
		return budget.Budget{}
	}
	return budget.FromPrediction(est.Nodes, est.Dists, b.slack, 0)
}

// measureRange runs the workload without the parent-distance
// optimization (which the cost model deliberately ignores, footnote 2)
// and returns average node reads and distance computations per query.
// Queries execute concurrently across Config.Workers goroutines —
// read-only tree traversal is concurrency-safe and the counters are
// atomic — with per-query result sizes reduced in query order so the
// averages are identical at any worker count.
func (b *built) measureRange(queries []metric.Object, radius float64) (nodes, dists, objs float64, err error) {
	b.tr.ResetCounters()
	qb := b.budgetFor(b.model.RangeL(radius))
	counts := make([]int, len(queries))
	err = parallel.For(b.workers, len(queries), func(i int) error {
		ms, err := b.tr.Range(queries[i], radius, mtree.QueryOptions{Budget: qb})
		if errors.Is(err, budget.ErrExceeded) {
			err = nil // degraded: keep the partial result set
		}
		if err != nil {
			return err
		}
		counts[i] = len(ms)
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var totalObjs int
	for _, c := range counts {
		totalObjs += c
	}
	nq := float64(len(queries))
	return float64(b.tr.NodeReads()) / nq,
		float64(b.tr.DistanceCount()) / nq,
		float64(totalObjs) / nq, nil
}

// measureRangeTraced runs the workload like measureRange but gives each
// query its own obs.Trace and merges them in query order, yielding the
// level-resolved observed costs the residual experiment compares against
// L-MCM. The merged trace is bit-identical at any worker count: each
// per-query trace is a deterministic function of the query, and the
// merge is an ordered integer reduction.
func (b *built) measureRangeTraced(queries []metric.Object, radius float64) (*obs.Trace, error) {
	b.tr.ResetCounters()
	traces := make([]*obs.Trace, len(queries))
	err := parallel.For(b.workers, len(queries), func(i int) error {
		tr := obs.NewTrace()
		if _, err := b.tr.Range(queries[i], radius, mtree.QueryOptions{Trace: tr}); err != nil {
			return err
		}
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := obs.NewTrace()
	for _, tr := range traces {
		merged.Merge(tr)
	}
	return merged, nil
}

// measureNN runs the k-NN workload, returning average node reads,
// distance computations, and k-th neighbor distance per query. Like
// measureRange it fans queries out across Config.Workers goroutines and
// sums the k-th-neighbor distances in query order.
func (b *built) measureNN(queries []metric.Object, k int) (nodes, dists, nnDist float64, err error) {
	b.tr.ResetCounters()
	qb := b.budgetFor(b.model.NNL(k))
	kth := make([]float64, len(queries))
	err = parallel.For(b.workers, len(queries), func(i int) error {
		ms, err := b.tr.NN(queries[i], k, mtree.QueryOptions{Budget: qb})
		if errors.Is(err, budget.ErrExceeded) {
			err = nil // degraded: keep the best neighbors found
		}
		if err != nil {
			return err
		}
		if len(ms) == k {
			kth[i] = ms[k-1].Distance
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var distSum float64
	for _, d := range kth {
		distSum += d
	}
	nq := float64(len(queries))
	return float64(b.tr.NodeReads()) / nq,
		float64(b.tr.DistanceCount()) / nq,
		distSum / nq, nil
}
