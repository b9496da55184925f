package mtree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"mcost/internal/metric"
	"mcost/internal/obs"
	"mcost/internal/pager"
)

// PromotePolicy selects the two routing objects promoted by a node split.
type PromotePolicy int

const (
	// PromoteMinMaxRadius evaluates candidate pairs and picks the pair
	// whose partition minimizes the larger of the two covering radii
	// (the mM_RAD policy of the M-tree paper). All pairs are tried for
	// small nodes; large nodes evaluate a random sample of pairs.
	PromoteMinMaxRadius PromotePolicy = iota
	// PromoteRandom promotes two random entries. Cheapest; worst-quality
	// regions. Useful as an ablation baseline.
	PromoteRandom
)

func (p PromotePolicy) String() string {
	switch p {
	case PromoteMinMaxRadius:
		return "mM_RAD"
	case PromoteRandom:
		return "random"
	default:
		return fmt.Sprintf("PromotePolicy(%d)", int(p))
	}
}

// Split and bulk-load constants of the paper's experimental setup.
const (
	// promoteSamples caps the candidate pairs PromoteMinMaxRadius
	// evaluates on large nodes.
	promoteSamples = 24
	// minUtil is the minimum node utilization for bulk loading, as a
	// fraction of PageSize.
	minUtil = 0.3
)

// Options configures a Tree. Space is required; everything else has
// defaults matching the paper's experimental setup (4 KB nodes, 30%
// minimum utilization for bulk loading, mM_RAD promotion).
type Options struct {
	// Space is the bounded metric space of the indexed objects.
	Space *metric.Space
	// Codec serializes objects; if nil, inferred from the first
	// inserted object (vectors and strings are built in).
	Codec ObjectCodec
	// PageSize is the node size in bytes (default 4096).
	PageSize int
	// Promote selects the split promotion policy.
	Promote PromotePolicy
	// Pager, when set, makes the tree fully paged: every node access
	// reads and decodes the page. When nil the tree keeps nodes in
	// memory and counts accesses logically — same costs, much faster.
	// The pager's page size must be PhysPageSize(PageSize): the node
	// payload plus the per-page checksum.
	Pager pager.Pager
	// Metrics, when non-nil, receives the counter "mtree.corrupt_pages"
	// (checksum mismatches caught on fetch) from paged trees.
	Metrics *obs.Registry
	// Seed drives split sampling and bulk-load seeding.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	return o
}

// Tree is an M-tree. It is not safe for concurrent mutation; concurrent
// read-only queries (Range, NN, NNWithStop) are safe in memory mode and
// in paged mode whenever the Pager is safe for concurrent use (all
// built-in pagers and the pager.Cache wrapper are). The distance and
// node-read counters are atomic, so totals accumulated by a parallel
// query batch match the sequential ones exactly.
type Tree struct {
	opt     Options
	counter *metric.Counter
	store   nodeStore
	rng     *rand.Rand

	root    pager.PageID
	height  int
	size    int
	nextOID uint64

	// arena, when non-nil, is the frozen columnar snapshot queries run
	// against instead of the node store (see FreezeArena). Mutations
	// thaw it.
	arena *Arena
	// reads counts node accesses — store fetches and the arena's logical
	// ones alike, so NodeReads is one number whichever source served the
	// query.
	reads atomic.Int64
	// eng is the traversal core over the node store, used while no arena
	// is attached.
	eng engine
}

// New creates an empty M-tree.
func New(opt Options) (*Tree, error) {
	if opt.Space == nil {
		return nil, errors.New("mtree: Options.Space is required")
	}
	if err := opt.Space.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if opt.PageSize < 256 {
		return nil, fmt.Errorf("mtree: page size %d too small (min 256)", opt.PageSize)
	}
	t := &Tree{
		opt: opt,
		// Accelerate substitutes bit-identical fast implementations for
		// the canonical string metrics (SWAR Hamming, pooled-row
		// Levenshtein); spaces it does not recognize pass through
		// untouched, so counted distances never change value.
		counter: metric.NewCounter(metric.Accelerate(opt.Space)),
		rng:     rand.New(rand.NewSource(opt.Seed)),
		root:    pager.InvalidPage,
	}
	if opt.Pager != nil {
		if opt.Pager.PageSize() != PhysPageSize(opt.PageSize) {
			return nil, fmt.Errorf("mtree: pager page size %d != PhysPageSize(%d) = %d (node size + checksum)",
				opt.Pager.PageSize(), opt.PageSize, PhysPageSize(opt.PageSize))
		}
		if opt.Codec == nil {
			return nil, errors.New("mtree: paged mode requires an explicit Codec")
		}
		t.store = newPagedStore(opt.Pager, opt.Codec, opt.Metrics.Counter("mtree.corrupt_pages"))
	} else {
		t.store = newMemStore()
	}
	t.eng = engine{kernel: kernel{space: t.counter.Space()}, src: t, counter: t.counter, bound: opt.Space.Bound}
	return t, nil
}

// Size returns the number of indexed objects.
func (t *Tree) Size() int { return t.size }

// Height returns the number of levels (0 for an empty tree; leaves are
// level Height, the root level 1, following the paper's convention).
func (t *Tree) Height() int { return t.height }

// NumNodes returns the number of nodes M in the tree.
func (t *Tree) NumNodes() int { return t.store.numNodes() }

// beginWrite readies the tree for a structural change: the frozen arena
// no longer describes it, and a restored paged store must know its
// freed pages before it allocates or frees one.
func (t *Tree) beginWrite() {
	t.ThawArena()
	if ps, ok := t.store.(*pagedStore); ok {
		ps.seedFreelist()
	}
}

// PageSize returns the node size in bytes.
func (t *Tree) PageSize() int { return t.opt.PageSize }

// Space returns the metric space descriptor.
func (t *Tree) Space() *metric.Space { return t.opt.Space }

// DistanceCount returns the number of distance computations performed
// since the last ResetCounters (queries and inserts alike).
func (t *Tree) DistanceCount() int64 { return t.counter.Count() }

// NodeReads returns the number of node accesses since the last
// ResetCounters, whichever of the store and the arena served them.
func (t *Tree) NodeReads() int64 { return t.reads.Load() }

// ResetCounters zeroes the distance-computation and node-read counters,
// typically called after building and before measuring a query workload.
//
// ResetCounters is NOT safe to call while queries are in flight: a
// concurrent query's increments straddle the reset and land partly
// before, partly after, leaving both measurements wrong. The same holds
// for obs sinks (a per-query obs.Trace must be owned by one goroutine;
// merge afterwards). The supported pattern is reset *between* batches:
// finish or join all queries, ResetCounters, start the next batch —
// exactly what the experiment harness does and what
// TestResetBetweenBatches exercises under the race detector.
func (t *Tree) ResetCounters() {
	t.counter.Reset()
	t.reads.Store(0)
}

// fetch reads one node and counts it: one node read, the I/O cost unit
// of the paper.
func (t *Tree) fetch(id pager.PageID) (*node, error) {
	n, err := t.store.peek(id)
	if err == nil {
		t.reads.Add(1)
	}
	return n, err
}

// dist computes (and counts) one distance.
func (t *Tree) dist(a, b metric.Object) float64 {
	return t.counter.Distance(a, b)
}

func (t *Tree) ensureCodec(sample metric.Object) error {
	if t.opt.Codec != nil {
		return nil
	}
	c, err := CodecFor(sample)
	if err != nil {
		return err
	}
	t.opt.Codec = c
	return nil
}

// maxObjectBytes is the largest object encoding that still guarantees a
// post-split node can hold at least two internal entries.
func (t *Tree) maxObjectBytes() int {
	return (t.opt.PageSize-nodeHeaderSize)/2 - (8 + 8 + 4 + 2)
}

// Insert adds one object to the tree. The assigned OID counts objects
// ever inserted (dense from 0 while no deletions happen; never reused
// after a Delete).
func (t *Tree) Insert(obj metric.Object) error {
	if obj == nil {
		return errors.New("mtree: nil object")
	}
	t.beginWrite()
	if err := t.ensureCodec(obj); err != nil {
		return err
	}
	if size := t.opt.Codec.Size(obj); size > t.maxObjectBytes() {
		return fmt.Errorf("mtree: object of %d bytes too large for page size %d", size, t.opt.PageSize)
	}
	oid := t.nextOID
	t.nextOID++
	if t.root == pager.InvalidPage {
		n, err := t.store.alloc(true)
		if err != nil {
			return err
		}
		n.entries = append(n.entries, Entry{Object: obj, OID: oid, ParentDist: math.NaN()})
		if err := t.store.store(n); err != nil {
			return err
		}
		t.root = n.id
		t.height = 1
		t.size = 1
		return nil
	}
	split, err := t.insertAt(t.root, obj, oid, math.NaN(), nil)
	if err != nil {
		return err
	}
	if split != nil {
		root, err := t.store.alloc(false)
		if err != nil {
			return err
		}
		split.e1.ParentDist = math.NaN()
		split.e2.ParentDist = math.NaN()
		root.entries = append(root.entries, split.e1, split.e2)
		if err := t.store.store(root); err != nil {
			return err
		}
		t.root = root.id
		t.height++
	}
	t.size++
	return nil
}

// InsertAll inserts the objects in order, failing fast on the first
// error.
func (t *Tree) InsertAll(objs []metric.Object) error {
	for i, o := range objs {
		if err := t.Insert(o); err != nil {
			return fmt.Errorf("mtree: object %d: %w", i, err)
		}
	}
	return nil
}

// NextOID returns the OID the next Insert will assign.
func (t *Tree) NextOID() uint64 { return t.nextOID }
