// Package cliutil holds the engine and flag plumbing shared by the
// mcost commands. mcost-query, mcost-exp and mcost-serve all build the
// same stack — dataset, M-tree options, optional sharding, optional
// paged storage with fault injection, cost-model budgets — and used to
// re-declare the same flags with drifting help text. Each command
// registers the groups it needs with its own defaults and keeps only
// its genuinely command-specific flags local.
package cliutil

import (
	"flag"
	"fmt"
	"time"

	"mcost"
	"mcost/internal/dataset"
	"mcost/internal/recal"
	"mcost/internal/rescache"
)

// DatasetFlags selects the dataset (-dataset, -file, -n, -dim).
type DatasetFlags struct {
	Kind string
	File string
	N    int
	Dim  int
}

// RegisterDataset registers the dataset flags on fs with the given
// defaults.
func RegisterDataset(fs *flag.FlagSet, kind string, n, dim int) *DatasetFlags {
	f := &DatasetFlags{}
	fs.StringVar(&f.Kind, "dataset", kind, "clustered | uniform | words | hdc | heavytail")
	fs.StringVar(&f.File, "file", "", "load dataset from file instead of generating")
	fs.IntVar(&f.N, "n", n, "dataset size")
	fs.IntVar(&f.Dim, "dim", dim, "dimensionality (vector datasets; codeword bits for hdc)")
	return f
}

// Load generates or loads the selected dataset.
func (f *DatasetFlags) Load(seed int64) (*dataset.Dataset, error) {
	if f.File != "" {
		return dataset.LoadFile(f.File)
	}
	switch f.Kind {
	case "clustered":
		return dataset.PaperClustered(f.N, f.Dim, seed), nil
	case "uniform":
		return dataset.Uniform(f.N, f.Dim, seed), nil
	case "words":
		return dataset.Words(f.N, seed), nil
	case "hdc":
		// The curse-by-construction workload: Hamming codewords whose
		// distances concentrate binomially. -dim sets the codeword width;
		// the classic HDC regime is 10,000 bits.
		bits := f.Dim
		if bits <= 0 {
			bits = 10_000
		}
		return dataset.HDC(f.N, bits, seed), nil
	case "heavytail":
		return dataset.HeavyTailClustered(f.N, f.Dim, 10, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset kind %q", f.Kind)
	}
}

// TreeFlags tune the M-tree build (-pagesize, -seed, -workers).
type TreeFlags struct {
	PageSize int
	Seed     int64
	Workers  int
	Layout   string
}

// RegisterTree registers the tree flags on fs; seed is the
// command-specific default. -layout is registered only withLayout, for
// commands that serve queries from the built tree.
func RegisterTree(fs *flag.FlagSet, seed int64, withLayout bool) *TreeFlags {
	f := &TreeFlags{}
	fs.IntVar(&f.PageSize, "pagesize", 4096, "M-tree node size in bytes")
	fs.Int64Var(&f.Seed, "seed", seed, "random seed")
	fs.IntVar(&f.Workers, "workers", 0, "worker goroutines for estimation and query batches (0 = all CPUs); results are identical at any count")
	if withLayout {
		fs.StringVar(&f.Layout, "layout", "memory", "node layout for query serving: memory | arena; arena freezes the tree into flat columnar slabs with batched distance kernels (bit-identical results)")
	}
	return f
}

// Options assembles the build options over the given storage stack. It
// rejects an unknown -layout, so no build silently runs without the
// arena it asked for.
func (f *TreeFlags) Options(storage mcost.StorageOptions) (mcost.Options, error) {
	opt := mcost.Options{PageSize: f.PageSize, Seed: f.Seed, Workers: f.Workers, Storage: storage}
	switch f.Layout {
	case "", "memory":
	case "arena":
		opt.Arena = mcost.ArenaOptions{Enabled: true}
	default:
		return mcost.Options{}, fmt.Errorf("unknown -layout %q (memory | arena)", f.Layout)
	}
	return opt, nil
}

// ShardFlags select the sharded engine (-shards, -shard-assign,
// -batch).
type ShardFlags struct {
	Shards int
	Assign string
	Batch  int
}

// RegisterShards registers the shard flags on fs with the
// command-specific defaults. A negative batch leaves -batch
// unregistered, for commands with their own batching (mcost-serve
// micro-batches by window, not by flag).
func RegisterShards(fs *flag.FlagSet, shards int, assign string, batch int) *ShardFlags {
	f := &ShardFlags{}
	fs.IntVar(&f.Shards, "shards", shards, "partition the dataset across this many independent M-trees; queries fan out in parallel and k-NN skips shards the cost model rules out")
	fs.StringVar(&f.Assign, "shard-assign", assign, "shard assignment with -shards > 1: round-robin | pivot")
	if batch >= 0 {
		fs.IntVar(&f.Batch, "batch", batch, "batch size for batched traversal; each node is fetched once per batch, so per-query reads amortize")
	}
	return f
}

// Options parses the flags into a build's shard options. It rejects
// -shards < 1, and an unknown -shard-assign whatever -shards says; the
// assignment applies only with -shards > 1, since one tree has no
// partition to prune.
func (f *ShardFlags) Options() (mcost.ShardOptions, error) {
	if f.Shards < 1 {
		return mcost.ShardOptions{}, fmt.Errorf("-shards %d: need at least one shard", f.Shards)
	}
	assign, err := mcost.ParseShardAssignment(f.Assign)
	if err != nil || f.Shards == 1 {
		return mcost.ShardOptions{Shards: f.Shards}, err
	}
	return mcost.ShardOptions{Shards: f.Shards, Assign: assign}, nil
}

// StorageFlags select the paged storage stack and its fault schedule
// (-paged, -cache-pages, -retry, -fault-*).
type StorageFlags struct {
	Paged      bool
	CachePages int
	Retry      int

	FaultSeed        int64
	FaultReadRate    float64
	FaultWriteRate   float64
	FaultTornRate    float64
	FaultCorruptRate float64
}

// RegisterStorage registers the storage flags on fs.
func RegisterStorage(fs *flag.FlagSet) *StorageFlags {
	f := &StorageFlags{}
	fs.BoolVar(&f.Paged, "paged", false, "mount trees on checksummed paged storage (CRC32-C per page; corruption surfaces as a typed error)")
	fs.IntVar(&f.CachePages, "cache-pages", 0, "LRU page-cache capacity for paged storage (0 = no cache)")
	fs.IntVar(&f.Retry, "retry", 0, "retry attempts per page operation for transient faults (0 = default 3, 1 = no retrying)")
	fs.Int64Var(&f.FaultSeed, "fault-seed", 1, "seed for the deterministic fault schedule")
	fs.Float64Var(&f.FaultReadRate, "fault-read-rate", 0, "probability a page read fails transiently (enables fault injection; implies -paged)")
	fs.Float64Var(&f.FaultWriteRate, "fault-write-rate", 0, "probability a page write fails transiently (implies -paged)")
	fs.Float64Var(&f.FaultTornRate, "fault-torn-rate", 0, "probability a page write is torn: half the page lands, then a transient error (implies -paged)")
	fs.Float64Var(&f.FaultCorruptRate, "fault-corrupt-rate", 0, "probability a page read returns bit-flipped data, caught by the page checksum (implies -paged)")
	return f
}

// FaultConfig assembles the fault schedule from the flags.
func (f *StorageFlags) FaultConfig() mcost.FaultConfig {
	return mcost.FaultConfig{
		Seed:            f.FaultSeed,
		ReadErrorRate:   f.FaultReadRate,
		WriteErrorRate:  f.FaultWriteRate,
		TornWriteRate:   f.FaultTornRate,
		ReadCorruptRate: f.FaultCorruptRate,
	}
}

// Options assembles the storage stack; any armed fault implies paged
// storage. metrics may be nil.
func (f *StorageFlags) Options(metrics *mcost.MetricsRegistry) mcost.StorageOptions {
	faults := f.FaultConfig()
	s := mcost.StorageOptions{
		Paged:         f.Paged || faults.Any(),
		CachePages:    f.CachePages,
		RetryAttempts: f.Retry,
		Metrics:       metrics,
	}
	if faults.Any() {
		s.Faults = &faults
	}
	return s
}

// CacheFlags size the metric-exact result cache (-cache-entries,
// -cache-max-radius).
type CacheFlags struct {
	Entries   int
	MaxRadius float64
}

// RegisterCache registers the result-cache flags on fs; entries is the
// command-specific default (0 = cache off).
func RegisterCache(fs *flag.FlagSet, entries int) *CacheFlags {
	f := &CacheFlags{}
	fs.IntVar(&f.Entries, "cache-entries", entries, "cache this many recent result sets and answer contained queries exactly from them by the triangle inequality (0 = off)")
	fs.Float64Var(&f.MaxRadius, "cache-max-radius", 0, "never cache a result whose verified ball radius exceeds this (0 = no limit)")
	return f
}

// Enabled reports whether the flags ask for a cache.
func (f *CacheFlags) Enabled() bool { return f.Entries > 0 }

// Build constructs the cache the flags describe over the dataset's
// metric space, or nil when the cache is off.
func (f *CacheFlags) Build(space *mcost.Space) (*rescache.Cache, error) {
	if !f.Enabled() {
		return nil, nil
	}
	return rescache.New(rescache.Config{
		Entries:   f.Entries,
		MaxRadius: f.MaxRadius,
		Dist:      space.Distance,
	})
}

// RecalFlags enable online cost-model recalibration (-recal,
// -recal-window, -recal-band).
type RecalFlags struct {
	Enabled bool
	Window  int
	Band    float64
}

// RegisterRecal registers the recalibration flags on fs. The -recal
// switch is registered only withSwitch, for commands whose index may
// run without recalibration.
func RegisterRecal(fs *flag.FlagSet, withSwitch bool) *RecalFlags {
	f := &RecalFlags{}
	if withSwitch {
		fs.BoolVar(&f.Enabled, "recal", false, "keep the cost model live under inserts and deletes: maintain the distance histogram incrementally, learn per-level bias corrections from observed traversal costs, and raise a drift alarm when the windowed prediction error leaves the band")
	}
	fs.IntVar(&f.Window, "recal-window", 0, "sliding window of recent executions the bias correction and drift alarm are computed over (0 = default 64)")
	fs.Float64Var(&f.Band, "recal-band", 0, "relative windowed prediction error that triggers a drift alarm (0 = default 0.5)")
	return f
}

// Config assembles the recalibration config; seed keeps the reservoir
// sampling deterministic alongside the build.
func (f *RecalFlags) Config(seed int64) recal.Config {
	return recal.Config{Window: f.Window, Band: f.Band, Seed: seed}
}

// Apply enables recalibration on the index Build returned, when the
// flags ask for it. d primes a one-shard index's reservoir.
func (f *RecalFlags) Apply(ix *mcost.Index, d *dataset.Dataset, seed int64) error {
	if !f.Enabled {
		return nil
	}
	return ix.EnableRecalibration(f.Config(seed), d.Objects)
}

// EngineFlags select the serving engine and the planner ceiling
// (-engine, -plan-ceiling).
type EngineFlags struct {
	Mode    string
	Ceiling float64
}

// RegisterEngine registers the engine flags on fs; mode is the
// command-specific default ("tree" preserves the pre-advisor
// behavior, "auto" plans per query).
func RegisterEngine(fs *flag.FlagSet, mode string) *EngineFlags {
	f := &EngineFlags{}
	fs.StringVar(&f.Mode, "engine", mode, "query engine: tree | scan | auto; auto prices every query on both the M-tree (L-MCM) and the linear scan and runs the cheaper one")
	fs.Float64Var(&f.Ceiling, "plan-ceiling", 0, "reject a query when even its cheapest plan prices above this many node reads + distance computations (serving layer answers a typed 422 plan_rejected; 0 = no ceiling)")
	return f
}

// Apply parses -engine and sets the mode on the index Build returned.
func (f *EngineFlags) Apply(ix *mcost.Index) error {
	mode, err := mcost.ParseEngineMode(f.Mode)
	if err != nil {
		return err
	}
	return ix.SetEngineMode(mode)
}

// BudgetFlags bound query execution by the cost model (-budget-slack,
// and -query-timeout when the command supports cancellation).
type BudgetFlags struct {
	Slack   float64
	Timeout time.Duration
}

// RegisterBudget registers -budget-slack (and -query-timeout when
// withTimeout) on fs.
func RegisterBudget(fs *flag.FlagSet, withTimeout bool) *BudgetFlags {
	f := &BudgetFlags{}
	fs.Float64Var(&f.Slack, "budget-slack", 0, "stop a query once it spends this multiple of the cost model's L-MCM prediction, returning partial results (0 = unlimited)")
	if withTimeout {
		fs.DurationVar(&f.Timeout, "query-timeout", 0, "cancel a query after this duration, returning partial results (0 = none)")
	}
	return f
}

// Build constructs the index the flags describe, of sf's shard count.
func Build(d *dataset.Dataset, opt mcost.Options, sf *ShardFlags) (*mcost.Index, error) {
	so, err := sf.Options()
	if err != nil {
		return nil, err
	}
	return mcost.BuildSharded(d.Space, d.Objects, opt, so)
}
