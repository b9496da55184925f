package mcost

import (
	"time"

	"mcost/internal/budget"
	"mcost/internal/mtree"
	"mcost/internal/pager"
)

// Fault-tolerant storage and graceful degradation. A Build with
// StorageOptions.Paged mounts the tree on the resilient page stack —
// checksummed pages over an in-memory base, optionally wrapped in fault
// injection (for testing), bounded retry, and an LRU cache — and
// RangeBatchTraced / NNBatchTraced add cancellation and cost-budgeted
// stops on top of any index.

// QueryBudget caps one query's node reads and distance computations;
// zero fields are unlimited. mcost-serve and mcost-query seed it from
// the query's own price (PriceRange / PriceNN) × slack, letting the
// model gate its own queries.
type QueryBudget = budget.Budget

// FaultConfig is a deterministic storage fault schedule (seeded; every
// run with the same seed injects the same faults). Only meaningful for
// tests and resilience experiments.
type FaultConfig = pager.FaultConfig

// FaultStats counts the faults a schedule has injected.
type FaultStats = pager.FaultStats

// Typed failure sentinels, for errors.Is.
var (
	// ErrBudgetExceeded reports a query stopped by its QueryBudget; the
	// partial results found before the stop are returned with it.
	ErrBudgetExceeded = budget.ErrExceeded
	// ErrCorruptPage reports a page whose checksum did not verify.
	ErrCorruptPage = pager.ErrCorruptPage
	// ErrRetryExhausted reports a transient storage fault that survived
	// every retry attempt.
	ErrRetryExhausted = pager.ErrExhausted
	// ErrBadSnapshot reports a truncated or corrupted snapshot blob.
	ErrBadSnapshot = mtree.ErrBadSnapshot
)

// StorageOptions selects and tunes the storage stack under Build.
type StorageOptions struct {
	// Paged mounts the tree on checksummed pages instead of plain
	// in-memory nodes: every node access round-trips through the page
	// codec and verifies a CRC32-C, so at-rest corruption surfaces as
	// ErrCorruptPage instead of wrong results. Costs serialization work;
	// tree structure and query results are identical to memory mode.
	Paged bool
	// CachePages adds a write-through LRU of this many pages (0 = no
	// cache).
	CachePages int
	// RetryAttempts bounds the per-operation tries absorbing transient
	// faults (0 = default 3; 1 disables retrying).
	RetryAttempts int
	// RetryBackoff is the pause before the first retry, doubling per
	// further retry (0 = no sleeping, right for in-memory storage).
	RetryBackoff time.Duration
	// Faults, when non-nil, inserts a seeded fault-injection layer under
	// the retry layer. Implies Paged. The layer starts disabled so the
	// build itself is clean; flip it on with Index.SetFaultsEnabled(true)
	// to target queries.
	Faults *FaultConfig
	// Metrics, when non-nil, receives storage counters: pager operation
	// counts, "pager.retries", "pager.retry_exhausted", and
	// "mtree.corrupt_pages".
	Metrics *MetricsRegistry
}

func (s StorageOptions) enabled() bool { return s.Paged || s.Faults != nil }

// arena returns the arena freeze a build asks for, nil for none: fault
// injection targets the paged read path, which the arena would bypass.
func (o Options) arena() *mtree.ArenaConfig {
	if !o.Arena.Enabled || o.Storage.Faults != nil {
		return nil
	}
	return &mtree.ArenaConfig{Mmap: o.Arena.Mmap, Path: o.Arena.Path}
}

// buildStorage assembles the page stack for Build when storage options
// ask for one, returning the mounted tree options.
func buildStorage(space *Space, sample Object, opt Options) (mtree.Options, *pager.Stack, error) {
	mo := mtree.Options{
		Space:    space,
		PageSize: opt.PageSize,
		Seed:     opt.Seed,
		Metrics:  opt.Storage.Metrics,
	}
	if !opt.Storage.enabled() {
		return mo, nil, nil
	}
	codec, err := mtree.CodecFor(sample)
	if err != nil {
		return mo, nil, err
	}
	pageSize := opt.PageSize
	if pageSize == 0 {
		pageSize = 4096
	}
	stack, err := pager.NewMemStack(pager.StackOptions{
		PageSize:   mtree.PhysPageSize(pageSize),
		CachePages: opt.Storage.CachePages,
		Retry: pager.RetryOptions{
			Attempts:    opt.Storage.RetryAttempts,
			BackoffBase: opt.Storage.RetryBackoff,
		},
		Faults:  opt.Storage.Faults,
		Metrics: opt.Storage.Metrics,
	})
	if err != nil {
		return mo, nil, err
	}
	if stack.Faulty != nil {
		stack.Faulty.SetEnabled(false)
	}
	mo.Pager = stack.Top
	mo.Codec = codec
	return mo, stack, nil
}

// SetFaultsEnabled flips fault injection on every shard built with
// StorageOptions.Faults; it reports whether any fault layer exists.
func (ix *Index) SetFaultsEnabled(on bool) bool {
	any := false
	for _, st := range ix.stacks {
		if st != nil && st.Faulty != nil {
			st.Faulty.SetEnabled(on)
			any = true
		}
	}
	return any
}

// FaultStats returns the injected-fault counts, summed over the shards'
// stacks (zero without a fault layer).
func (ix *Index) FaultStats() FaultStats {
	var out FaultStats
	for _, st := range ix.stacks {
		if st != nil && st.Faulty != nil {
			fs := st.Faulty.FaultStats()
			out.ReadErrors += fs.ReadErrors
			out.WriteErrors += fs.WriteErrors
			out.TornWrites += fs.TornWrites
			out.CorruptReads += fs.CorruptReads
		}
	}
	return out
}
