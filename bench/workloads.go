package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"mcost/internal/dataset"
	"mcost/internal/metric"
)

// Sizes shared by every workload. The datasets are a fifth to a half of
// the sizes the BENCH_* experiments use: mcost-serve spends seconds per
// thousand objects in advisor.ComputeProfile at boot, every run boots
// its servers boots times, and the whole ledger (114 runs) has
// to fit the driver's time cap.
const (
	poolSize    = 4000 // distinct queries a workload draws from
	nnK         = 10   // k of every /v1/nn
	nnShare     = 0.20 // share of reads that are k-NN; the rest are range
	oracleShare = 0.05 // share of answers compared with a brute-force scan
	traceSample = 400  // requests the traced replay runs
	boots       = 3    // times an end-to-end run sets its servers up; setup_s is the median
	// windowSeconds is about how long the windows are into which an
	// end-to-end run cuts its closed loop; every traffic metric is the
	// best window's.
	windowSeconds = 2.0
)

// workload is one traffic mix against one deployment. radius and
// openRate are pinned here, once, from the seed commit (see README.md
// "Pinned constants"); nothing is derived at run time, so a faster or
// slower commit is offered the same load.
type workload struct {
	name string
	why  string

	// The dataset is part of the workload, like the server flags: the
	// same objects and the same tree on every run, whatever the seed.
	// Set-up time and the cost of pricing a query swing by a factor of
	// two from one dataset instance to the next (ComputeProfile's
	// bisection takes a different path), which a seeded dataset would
	// report as run-to-run noise. The seed draws the traffic.
	kind     string // "clustered" or "uniform" generator
	dim      int
	n        int
	dataSeed int64

	// radius gives about ten matches per range query on this dataset.
	radius float64
	// openRate is the open-loop arrival rate in ops/s: about half the
	// closed-loop qps of the seed commit.
	openRate float64

	// serveArgs are appended to the common mcost-serve flags.
	serveArgs []string
	// shards > 1 boots that many shard nodes behind one mcost-router.
	shards int
	// zipf > 0 draws queries from the pool with that Zipf exponent (and
	// offset zipfOffset) instead of uniformly.
	zipf float64
	// writeShare is the share of ops that are inserts, and again the
	// share that are deletes of the generator's own inserts.
	writeShare float64
}

var workloads = []workload{
	{
		name: "tree-l2",
		why:  "baseline: one node, clustered D=16, cache off; arena traversal, L2 kernel, codec and NN pricing all on the path",
		kind: "clustered", dim: 16, n: 2000, dataSeed: 1,
		radius: 0.37, openRate: 330,
	},
	{
		name: "scan-l2",
		why:  "uniform D=64 where the planner sends every query to the linear scan; engine time dominates, cache and codec do not",
		kind: "uniform", dim: 64, n: 10000, dataSeed: 1,
		radius: 2.50, openRate: 340,
	},
	{
		name: "zipf-cache",
		why:  "Zipf s=1.4 over the pool with a 1024-entry result cache and 1ms batch window; hits bypass the engine",
		kind: "uniform", dim: 8, n: 4000, dataSeed: 1,
		radius: 0.455, openRate: 330,
		serveArgs: []string{"-cache-entries", "1024", "-batch-window", "1ms"},
		zipf:      1.4,
	},
	{
		name: "churn",
		why:  "tree-l2 reads plus 10% inserts and 10% deletes; the first write thaws the arena, reads share the RW lock with writes",
		kind: "clustered", dim: 16, n: 2000, dataSeed: 1,
		radius: 0.37, openRate: 310,
		writeShare: 0.10,
	},
	{
		name: "cluster",
		why:  "three shard nodes behind mcost-router, clustered D=16; the slowest shard, the router hop and the merge set latency",
		kind: "clustered", dim: 16, n: 3000, dataSeed: 1,
		radius: 0.36, openRate: 160,
		shards: 3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run feeds the servers: the workload's fixed
// dataset and the traffic the seed draws.
type inputs struct {
	space   *metric.Space
	objects []metric.Object // the indexed dataset; OID i is objects[i]
	pool    []metric.Object // the query pool
	fresh   []metric.Object // objects the churn workload inserts
	// rangeBody and nnBody are the request bodies of pool[i], encoded
	// once so the generator does no JSON work per op.
	rangeBody [][]byte
	nnBody    [][]byte
}

// points draws n points from the workload's generator. The generators
// under internal/dataset return L∞ spaces; the benchmark uses their
// coordinates only and indexes them under L2. Query points follow the
// data distribution without belonging to the dataset (the paper's
// biased query model).
func (w workload) points(n int, queries bool) []metric.Object {
	if w.kind == "clustered" {
		if queries {
			return dataset.PaperClusteredQueries(n, w.dim, w.dataSeed).Queries
		}
		return dataset.PaperClustered(n, w.dim, w.dataSeed).Objects
	}
	if queries {
		return dataset.Uniform(n, w.dim, w.dataSeed+7919).Objects
	}
	return dataset.Uniform(n, w.dim, w.dataSeed).Objects
}

// generate builds a run's inputs. The seed picks the query pool, and
// the objects a churn run inserts, out of a population of query points
// ten pools large; op order, arrival times and the oracle's sample are
// drawn from the same seed where they are used.
func (w workload) generate(seed int64) (*inputs, error) {
	in := &inputs{
		space:   metric.VectorSpace("L2", w.dim),
		objects: w.points(w.n, false),
	}
	population := w.points(10*poolSize, true)
	picked := rand.New(rand.NewSource(seed)).Perm(len(population))
	take := func(idx []int) []metric.Object {
		out := make([]metric.Object, len(idx))
		for i, j := range idx {
			out[i] = population[j]
		}
		return out
	}
	in.pool, in.fresh = take(picked[:poolSize]), take(picked[poolSize:2*poolSize])
	in.rangeBody = make([][]byte, poolSize)
	in.nnBody = make([][]byte, poolSize)
	for i, o := range in.pool {
		vec, err := json.Marshal(o)
		if err != nil {
			return nil, err
		}
		in.rangeBody[i] = []byte(`{"query":` + string(vec) + `,"radius":` + strconv.FormatFloat(w.radius, 'g', -1, 64) + `}`)
		in.nnBody[i] = []byte(`{"query":` + string(vec) + `,"k":` + strconv.Itoa(nnK) + `}`)
	}
	return in, nil
}

// dataset wraps the generated objects for dataset.SaveFile, the format
// mcost-serve -file loads.
func (in *inputs) dataset(name string) *dataset.Dataset {
	return &dataset.Dataset{Name: name, Space: in.space, Objects: in.objects}
}

type opKind int

const (
	opRange opKind = iota
	opNN
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"range", "nn", "insert", "delete"}[k]
}

// op is one request to send: its kind, for a read the pool index of
// its query, and whether the oracle compares its answer with a
// brute-force scan.
type op struct {
	kind   opKind
	index  int
	oracle bool
}

// opStream yields a workload's ops from one seeded source. Each client
// of the closed loop and the open-loop schedule own a stream seeded
// from the run's seed and their own number.
//
// Ops come in shuffled blocks of mixBlock that hold each kind in its
// exact share. A k-NN costs some fifty range queries on the seed
// commit, so with independent draws the k-NN count of a window (a
// binomial, ±5 % over 2 000 ops) would set its throughput: two runs
// would differ by their luck with the mix, not by the system.
type opStream struct {
	w     workload
	rng   *rand.Rand
	zipf  *rand.Zipf
	block []opKind // what is left of the current block
}

// zipfOffset is the v of rand.NewZipf: rank k is drawn with probability
// proportional to (v+k)^-s. At v=1 rank 0 alone would take a third of
// all ops, and a run's median latency would be the cost of whichever
// query the seed put there (a range answer holds 2 to 40 matches). At
// v=10 the head is flat — rank 0 takes 4 % — while the first 1024 ranks
// still draw 93 % of the ops, so the hot set fits the cache as before.
const zipfOffset = 10

// mixBlock is the length of a block of the op mix: the smallest in
// which the 80/20 read split and the 10 % write shares are whole.
const mixBlock = 50

func newOpStream(w workload, seed int64, id int) *opStream {
	s := &opStream{w: w, rng: rand.New(rand.NewSource(seed*1000003 + int64(id)))}
	if w.zipf > 0 {
		s.zipf = rand.NewZipf(s.rng, w.zipf, zipfOffset, poolSize-1)
	}
	return s
}

// refill deals the next block: writes in their share, the rest split
// between k-NN and range, then shuffled.
func (s *opStream) refill() {
	writes := int(math.Round(s.w.writeShare * mixBlock))
	nns := int(math.Round(nnShare * float64(mixBlock-2*writes)))
	s.block = s.block[:0]
	for i := 0; i < mixBlock; i++ {
		kind := opRange
		switch {
		case i < writes:
			kind = opInsert
		case i < 2*writes:
			kind = opDelete
		case i < 2*writes+nns:
			kind = opNN
		}
		s.block = append(s.block, kind)
	}
	s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
}

// next draws the next op. Which object an insert adds and which
// acknowledged insert a delete removes is settled when the op runs.
func (s *opStream) next() op {
	if len(s.block) == 0 {
		s.refill()
	}
	o := op{kind: s.block[len(s.block)-1]}
	s.block = s.block[:len(s.block)-1]
	if o.kind == opInsert || o.kind == opDelete {
		return o
	}
	o.oracle = s.rng.Float64() < oracleShare
	if s.zipf != nil {
		o.index = int(s.zipf.Uint64())
	} else {
		o.index = s.rng.Intn(poolSize)
	}
	return o
}

// poissonSchedule returns the due times, in seconds from the window's
// start, of a Poisson arrival process of the given rate over a window:
// exponential gaps drawn from the seed, so a seed always yields the
// same schedule.
func poissonSchedule(seed int64, rate, window float64) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0a11))
	var due []float64
	for t := rng.ExpFloat64() / rate; t < window; t += rng.ExpFloat64() / rate {
		due = append(due, t)
	}
	return due
}
