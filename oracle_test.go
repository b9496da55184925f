package mcost

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mcost/internal/advisor"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

// The oracle holds every access method to one exact answer. An indexing
// scheme is an access method over a workload whose answer is fixed
// (Pestov & Stojmirović, cs/0211018), so the test generates the
// workload, computes the answer by brute force over the live objects,
// and checks each configured engine against it:
//
//   - range results as a canonical (distance, OID) set, and on the tree
//     side in the order the shards' own trees produce them, concatenated
//     in shard order;
//   - k-NN results as the exact (distance, OID) prefix;
//   - a budget-stopped batch as a typed ErrBudgetExceeded plus true
//     matches only;
//   - every unbudgeted batch slot bit for bit equal to its query run
//     alone;
//   - every read rerun on each shard tree directly, alone with the
//     parent-distance lemma off and on (the facade always turns it on)
//     and batched with it off, against brute force over that shard's
//     members;
//   - every shard tree passes Verify after the build and each write.
//
// One configuration is built three times — memory, paged behind a page
// cache over transient faults that retries absorb, and arena — at
// different worker counts, and the three twins must log the same
// results in the same order, the same Costs() and the same traces, op
// by op. Every configuration matches brute force, so S = 3 and S = 1
// agree as sets.

// oracleSeeds is the fixed table TestOracle runs. configBits decodes in
// newOracleConfig; the table covers every space, shard count,
// assignment, build, page size and worker count.
var oracleSeeds = []struct {
	seed int64
	bits uint64
}{
	{1, 0x400},  // L2, S = 1, round-robin, bulk, 512 B, workers 1/1/2
	{2, 0xd65},  // Linf, S = 2, round-robin, incremental, 1024 B, workers 1/2/4
	{3, 0x21a},  // edit, S = 3, pivot, bulk, 512 B, workers 1/3/1
	{4, 0xbb3},  // Hamming, S = 1, pivot, incremental, 2048 B, workers 1/4/3
	{5, 0x5d4},  // L2, S = 2, pivot, bulk, 4096 B, workers 1/2/2
	{6, 0x839},  // Linf, S = 3, pivot, incremental, 512 B, workers 1/1/3
	{7, 0x766},  // edit, S = 2, round-robin, incremental, 1024 B, workers 1/4/2
	{8, 0xecb},  // Hamming, S = 3, round-robin, bulk, 4096 B, workers 1/3/4
	{9, 0x1b8},  // L2, S = 3, pivot, incremental, 2048 B, workers 1/2/1
	{10, 0x641}, // Linf, S = 1, round-robin, bulk, 1024 B, workers 1/3/2
	{11, 0xcf2}, // edit, S = 1, pivot, incremental, 4096 B, workers 1/1/4
	{12, 0xb17}, // Hamming, S = 2, pivot, bulk, 512 B, workers 1/4/3
}

func TestOracle(t *testing.T) {
	for _, c := range oracleSeeds {
		t.Run(fmt.Sprintf("seed=%d/bits=%#x", c.seed, c.bits), func(t *testing.T) {
			runOracle(t, c.seed, c.bits)
		})
	}
}

// FuzzOracle drives the same generator from fuzzed seeds and
// configuration bits.
func FuzzOracle(f *testing.F) {
	for _, c := range oracleSeeds[:2] {
		f.Add(c.seed, c.bits)
	}
	f.Fuzz(runOracle)
}

// oracleConfig is one drawn configuration: a space with its object
// generator, the build options and the number of ops to run.
type oracleConfig struct {
	space   *Space
	gen     func(*rand.Rand) Object
	n, ops  int
	opt     Options
	so      ShardOptions
	workers [3]int // of the memory, paged and arena twins
}

// newOracleConfig decodes bits: 0–1 the space (L2, Linf, edit,
// Hamming), 2–3 the shard count (1 + value mod 3), 4 pivot assignment,
// 5 an Incremental build, 6–7 the page size, 8–9 and 10–11 the paged
// and arena twins' workers. The seed draws the rest.
func newOracleConfig(rng *rand.Rand, bits uint64) oracleConfig {
	c := oracleConfig{n: 40 + rng.Intn(120), ops: 30 + rng.Intn(15)}
	switch bits & 3 {
	case 0, 1:
		// Coordinates on a 1/8 grid, or duplicate objects, make
		// distances tie.
		name, dim, grid := "L2", 2+rng.Intn(5), 0.0
		if bits&3 == 1 {
			name = "Linf"
		}
		if rng.Intn(2) == 0 {
			grid = 8
		}
		c.space = VectorSpace(name, dim)
		c.gen = func(r *rand.Rand) Object {
			v := make(Vector, dim)
			for i := range v {
				if v[i] = r.Float64(); grid > 0 {
					v[i] = math.Round(v[i]*grid) / grid
				}
			}
			return v
		}
	case 2:
		maxLen, alpha := 3+rng.Intn(6), "abcd"[:2+rng.Intn(3)]
		c.space = EditSpace(maxLen)
		c.gen = func(r *rand.Rand) Object {
			b := make([]byte, 1+r.Intn(maxLen))
			for i := range b {
				b[i] = alpha[r.Intn(len(alpha))]
			}
			return string(b)
		}
	case 3:
		dim := 8 + rng.Intn(41)
		c.space = metric.HammingSpace(dim)
		c.gen = func(r *rand.Rand) Object {
			b := make([]byte, dim)
			for i := range b {
				b[i] = '0' + byte(r.Intn(2))
			}
			return string(b)
		}
	}
	c.opt = Options{
		PageSize:    [...]int{512, 1024, 2048, 4096}[bits>>6&3],
		Incremental: bits>>5&1 == 1,
		// Coarse F̂s keep the k-NN prices cheap.
		HistogramBins: 10 + rng.Intn(30),
		SamplePairs:   2000,
		Seed:          rng.Int63(),
	}
	c.so = ShardOptions{Shards: 1 + int(bits>>2&3)%3, Assign: ShardRoundRobin}
	if bits>>4&1 == 1 {
		c.so.Assign = ShardPivot
	}
	c.workers = [3]int{1, 1 + int(bits>>8&3), 1 + int(bits>>10&3)}
	return c
}

// oracleTwins builds the configuration as memory, paged and arena
// indexes.
func oracleTwins(t *testing.T, c oracleConfig, objs []Object) []*Index {
	twins := make([]*Index, 3)
	for i := range twins {
		opt := c.opt
		opt.Workers = c.workers[i]
		switch i {
		case 1: // transient faults, which the retries absorb
			opt.Storage = StorageOptions{Paged: true, CachePages: 2, RetryAttempts: 6,
				Faults: &FaultConfig{Seed: c.opt.Seed, ReadErrorRate: 0.02, WriteErrorRate: 0.05}}
		case 2:
			opt.Arena = ArenaOptions{Enabled: true}
		}
		ix, err := BuildSharded(c.space, objs, opt, c.so)
		if err != nil && i == 0 && c.so.Assign == ShardPivot && strings.Contains(err.Error(), "pivot assignment left shard") {
			t.Skipf("configuration unbuildable: %v", err)
		}
		if err != nil {
			t.Fatalf("twin %d: build: %v", i, err)
		}
		ix.SetFaultsEnabled(true)
		twins[i] = ix
	}
	return twins
}

// oracleOp is one generated operation. Reads carry queries and either a
// radius (k == 0) or k; writes carry an object and an OID.
type oracleOp struct {
	kind   string // range, nn, range-batch, nn-batch, insert, delete, refresh
	mode   EngineMode
	qs     []Object
	radius float64
	k      int
	budget QueryBudget
	obj    Object
	oid    uint64
	live   bool // delete: oid is live, so the delete must succeed
}

func (op oracleOp) String() string {
	switch op.kind {
	case "insert", "delete", "refresh":
		return fmt.Sprintf("%s oid=%d live=%v", op.kind, op.oid, op.live)
	}
	return fmt.Sprintf("%s mode=%s queries=%d radius=%v k=%d budget=%+v", op.kind, op.mode, len(op.qs), op.radius, op.k, op.budget)
}

// oracleState is the brute-force model: the live objects by OID.
type oracleState struct {
	space *Space
	live  map[uint64]Object
	oids  []uint64 // live OIDs, ascending
	dead  []uint64
	next  uint64
	pool  []Object // queries: members, deleted objects and fresh ones
}

// ranked returns every live object as a match for q, in canonical
// (distance, OID) order: the range answer at radius r is its prefix
// within r, the k-NN answer its first k.
func (s *oracleState) ranked(q Object) []Match {
	out := make([]Match, len(s.oids))
	for i, oid := range s.oids {
		out[i] = Match{OID: oid, Object: s.live[oid], Distance: s.space.Distance(q, s.live[oid])}
	}
	return canonOrder(out)
}

func withinRadius(ranked []Match, r float64) []Match {
	n := 0
	for n < len(ranked) && ranked[n].Distance <= r {
		n++
	}
	return ranked[:n]
}

// draw generates the next op from the live state.
func (s *oracleState) draw(rng *rand.Rand, c oracleConfig) oracleOp {
	var op oracleOp
	switch p := rng.Intn(20); {
	case p < 2:
		op.kind, op.obj = "insert", c.gen(rng)
		if rng.Intn(4) == 0 { // a duplicate of a live object
			op.obj = cloneObject(s.live[s.oids[rng.Intn(len(s.oids))]])
		}
		op.oid = s.next
		return op
	case p < 4:
		op.kind = "delete"
		if len(s.oids) <= c.n/2 || rng.Intn(5) == 0 {
			// A dead or never-issued OID must fail and change nothing.
			op.obj, op.oid = s.pool[rng.Intn(len(s.pool))], s.next+uint64(rng.Intn(3))
			if len(s.dead) > 0 && rng.Intn(2) == 0 {
				op.oid = s.dead[rng.Intn(len(s.dead))]
			}
			return op
		}
		op.oid, op.live = s.oids[rng.Intn(len(s.oids))], true
		op.obj = s.live[op.oid]
		return op
	case p < 5:
		op.kind = "refresh"
		return op
	case p < 9:
		op.kind, op.qs = "range", []Object{s.query(rng)}
	case p < 13:
		op.kind, op.qs = "nn", []Object{s.query(rng)}
	default:
		op.kind = "range-batch"
		if rng.Intn(2) == 0 {
			op.kind = "nn-batch"
		}
		op.mode = [...]EngineMode{EngineTree, EngineScan, EngineAuto}[rng.Intn(3)]
		size := 1 + rng.Intn(16)
		if rng.Intn(4) == 0 {
			size = 16
		}
		for range size {
			op.qs = append(op.qs, s.query(rng))
		}
		switch rng.Intn(6) {
		case 0:
			op.budget.MaxDistCalcs = 1 + int64(rng.Intn(40))
		case 1:
			op.budget.MaxNodeReads = 1 + int64(rng.Intn(4))
		}
	}
	if strings.HasPrefix(op.kind, "nn") {
		// k from 1 to every live object, the small ks most often: each
		// new k is priced once per shard model.
		switch op.k = 1 + rng.Intn(min(10, len(s.oids))); rng.Intn(8) {
		case 0:
			op.k = len(s.oids)
		case 1:
			op.k = 1 + rng.Intn(len(s.oids))
		}
		return op
	}
	switch rng.Intn(4) {
	case 0:
		op.radius = 0
	case 1: // exactly some member's distance: a tie at the boundary
		op.radius = s.space.Distance(op.qs[0], s.live[s.oids[rng.Intn(len(s.oids))]])
	case 2:
		op.radius = rng.Float64() * 0.3 * s.space.Bound
	default:
		op.radius = rng.Float64() * s.space.Bound
	}
	if s.space.Discrete {
		op.radius = math.Floor(op.radius)
	}
	return op
}

// query draws a query object: a live member, or one from the pool.
func (s *oracleState) query(rng *rand.Rand) Object {
	if rng.Intn(3) == 0 {
		return s.live[s.oids[rng.Intn(len(s.oids))]]
	}
	return s.pool[rng.Intn(len(s.pool))]
}

func cloneObject(o Object) Object {
	if v, ok := o.(Vector); ok {
		return append(Vector(nil), v...)
	}
	return o
}

// commit applies a write to the model once every twin has taken it.
func (s *oracleState) commit(op oracleOp) {
	switch {
	case op.kind == "insert":
		s.live[op.oid] = op.obj
		s.oids = append(s.oids, op.oid)
		s.pool = append(s.pool, op.obj)
		s.next++
	case op.kind == "delete" && op.live:
		delete(s.live, op.oid)
		for i, oid := range s.oids {
			if oid == op.oid {
				s.oids = append(s.oids[:i], s.oids[i+1:]...)
				break
			}
		}
		s.dead = append(s.dead, op.oid)
	}
}

func runOracle(t *testing.T, seed int64, bits uint64) {
	rng := rand.New(rand.NewSource(seed))
	c := newOracleConfig(rng, bits)
	objs := make([]Object, c.n)
	for i := range objs {
		if objs[i] = c.gen(rng); i > 0 && rng.Intn(10) == 0 {
			objs[i] = cloneObject(objs[rng.Intn(i)])
		}
	}
	twins := oracleTwins(t, c, objs)
	for i, ix := range twins {
		ck := &oracleCheck{t: t, ix: ix, where: fmt.Sprintf("seed %d bits %#x twin %d after the build", seed, bits, i)}
		ck.written(c.n)
	}
	s := &oracleState{space: c.space, live: make(map[uint64]Object, c.n), next: uint64(c.n)}
	for i, o := range objs {
		s.live[uint64(i)] = o
		s.oids = append(s.oids, uint64(i))
	}
	s.pool = append(s.pool, objs...)
	for range 16 {
		s.pool = append(s.pool, c.gen(rng))
	}
	for step := range c.ops {
		op := s.draw(rng, c)
		logs := make([]string, len(twins))
		for i, ix := range twins {
			ck := &oracleCheck{t: t, s: s, ix: ix, op: op,
				where: fmt.Sprintf("seed %d bits %#x op %d (%v) twin %d", seed, bits, step, op, i)}
			ck.run()
			logs[i] = ck.log.String()
		}
		for i := 1; i < len(twins); i++ {
			if logs[i] != logs[0] {
				t.Fatalf("seed %d bits %#x op %d (%v): twin %d diverges from the memory twin:\n%s",
					seed, bits, step, op, i, firstDiff(logs[i], logs[0]))
			}
		}
		s.commit(op)
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(g), len(w))
}

// oracleCheck runs one op on one twin, checks it against brute force,
// and logs what the twins must agree on.
type oracleCheck struct {
	t     *testing.T
	s     *oracleState
	ix    *Index
	op    oracleOp
	where string
	log   strings.Builder
	// scanPartial marks a budget stop the scan may have served. Over a
	// frozen arena the scan runs in slab order, not OID order, so it
	// stops holding other matches than on the other twins.
	scanPartial bool
}

func (ck *oracleCheck) fail(format string, args ...any) {
	ck.t.Helper()
	ck.t.Fatalf("%s: %s", ck.where, fmt.Sprintf(format, args...))
}

func (ck *oracleCheck) logMatches(label string, ms []Match) {
	fmt.Fprintf(&ck.log, "%s:", label)
	for _, m := range ms {
		fmt.Fprintf(&ck.log, " %d@%v", m.OID, m.Distance)
	}
	ck.log.WriteByte('\n')
}

func (ck *oracleCheck) run() {
	ck.t.Helper()
	ix, op := ck.ix, ck.op
	ix.ResetCosts()
	switch op.kind {
	case "insert":
		oid, err := ix.Insert(op.obj)
		if err != nil || oid != op.oid {
			ck.fail("insert = (%d, %v), want OID %d", oid, err, op.oid)
		}
		ck.written(len(ck.s.oids) + 1)
	case "delete":
		if err := ix.Delete(op.obj, op.oid); (err == nil) != op.live {
			ck.fail("delete returned %v", err)
		}
		size := len(ck.s.oids)
		if op.live {
			size--
		}
		ck.written(size)
	case "refresh":
		if err := ix.RefreshModel(); err != nil {
			ck.fail("refresh: %v", err)
		}
		r, k := 0.1*ck.s.space.Bound, min(10, len(ck.s.oids))
		for _, est := range []CostEstimate{ix.PredictRangeLevel(r), ix.PredictNNLevel(k), ix.PredictRange(r), ix.PredictNN(k)} {
			if !(est.Nodes >= 0 && est.Dists >= 0) || math.IsInf(est.Nodes+est.Dists, 0) {
				ck.fail("prediction %+v is not finite and non-negative", est)
			}
			fmt.Fprintf(&ck.log, "predicted %v %v\n", est.Nodes, est.Dists)
		}
	default:
		if ck.read(); ck.scanPartial {
			return
		}
	}
	reads, dists := ix.Costs()
	fmt.Fprintf(&ck.log, "costs %d %d\n", reads, dists)
}

// written checks the index after a write: its size, and every shard
// tree's invariants.
func (ck *oracleCheck) written(size int) {
	ck.t.Helper()
	sizes, total := ck.ix.ShardSizes(), 0
	for _, n := range sizes {
		total += n
	}
	if got := ck.ix.Size(); got != size || total != size {
		ck.fail("size %d, shard sizes %v after the write, want %d", got, sizes, size)
	}
	for i, sh := range ck.ix.set.Shards() {
		if err := sh.Tree.Verify(); err != nil {
			ck.fail("shard %d: %v", i, err)
		}
	}
	fmt.Fprintf(&ck.log, "shard sizes %v\n", sizes)
}

// read runs a read op. Range and NN always run the tree side; batches
// run the engine the op's mode picks.
func (ck *oracleCheck) read() {
	ck.t.Helper()
	ix, op := ck.ix, ck.op
	var res [][]Match
	var err error
	tr := NewQueryTrace()
	switch op.kind {
	case "range":
		var ms []Match
		ms, err = ix.Range(op.qs[0], op.radius)
		res = [][]Match{ms}
	case "nn":
		var ms []Match
		ms, err = ix.NN(op.qs[0], op.k)
		res = [][]Match{ms}
	default:
		res, err = ck.batch(op.mode, op.qs, op.budget, tr)
	}
	if err != nil && (op.budget.Unlimited() || !errors.Is(err, ErrBudgetExceeded)) {
		ck.fail("query error %v", err)
	}
	if ck.scanPartial = err != nil && op.mode != EngineTree; !ck.scanPartial {
		fmt.Fprintf(&ck.log, "err %v\ntrace %s\n", err, tr)
	}
	if len(res) != len(op.qs) {
		ck.fail("%d result slots for %d queries", len(res), len(op.qs))
	}
	ranked := make([][]Match, len(op.qs))
	for i, q := range op.qs {
		if !ck.scanPartial {
			ck.logMatches(fmt.Sprintf("q%d", i), res[i])
		}
		if ranked[i] = ck.s.ranked(q); err != nil {
			ck.partial(i, res[i], ranked[i])
		} else {
			ck.exact(i, res[i], ranked[i], op.mode == EngineScan)
		}
	}
	if err != nil {
		// A budget stop is deterministic: the same batch under the same
		// budget stops at the same point.
		again, err2 := ck.batch(op.mode, op.qs, op.budget, nil)
		if err2 == nil || err2.Error() != err.Error() {
			ck.fail("rerun under the same budget returned %v, want %v", err2, err)
		}
		for i := range op.qs {
			matchesEqual(ck.t, fmt.Sprintf("%s: query %d rerun under the same budget", ck.where, i), again[i], res[i])
		}
		return
	}
	ck.shardTrees(res, ranked, op.mode == EngineTree || op.kind == "range" || op.kind == "nn")
	if len(op.qs) > 1 {
		// Each slot equals its query run alone, bit for bit, on the
		// engine the mode picks. A plan does not depend on the query,
		// so auto mode's solo runs go straight to the planned engine.
		mode := op.mode
		if mode == EngineAuto {
			mode = ck.planned()
		}
		for i, q := range op.qs {
			solo, err := ck.batch(mode, []Object{q}, QueryBudget{}, nil)
			if err != nil {
				ck.fail("query %d alone: %v", i, err)
			}
			matchesEqual(ck.t, fmt.Sprintf("%s: query %d in the batch vs alone", ck.where, i), res[i], solo[0])
		}
	}
}

// batch runs qs through the mode-aware batch surface.
func (ck *oracleCheck) batch(mode EngineMode, qs []Object, b QueryBudget, tr *QueryTrace) ([][]Match, error) {
	if err := ck.ix.SetEngineMode(mode); err != nil {
		ck.fail("%v", err)
	}
	if ck.op.k > 0 {
		return ck.ix.NNBatchTraced(context.Background(), qs, ck.op.k, b, tr)
	}
	return ck.ix.RangeBatchTraced(context.Background(), qs, ck.op.radius, b, tr)
}

// planned returns the engine auto mode runs the op's batch on.
func (ck *oracleCheck) planned() EngineMode {
	d, err := ck.ix.PlanRange(ck.op.radius)
	if ck.op.k > 0 {
		d, err = ck.ix.PlanNN(ck.op.k)
	}
	if err != nil {
		ck.fail("plan: %v", err)
	}
	if d.Engine == advisor.EngineScan {
		return EngineScan
	}
	return EngineTree
}

// exact holds a complete answer to brute force: k-NN as the exact
// (distance, OID) prefix, range as the canonical set — in canonical
// order already when the scan answered.
func (ck *oracleCheck) exact(i int, got, ranked []Match, canonical bool) {
	ck.t.Helper()
	want := withinRadius(ranked, ck.op.radius)
	if ck.op.k > 0 {
		want = ranked[:min(ck.op.k, len(ranked))]
		canonical = true
	}
	if !canonical {
		got = canonOrder(got)
	}
	matchesEqual(ck.t, fmt.Sprintf("%s: query %d vs brute force", ck.where, i), got, want)
	for j, m := range got {
		if !reflect.DeepEqual(m.Object, want[j].Object) {
			ck.fail("query %d match %d (oid %d): object %v, want %v", i, j, m.OID, m.Object, want[j].Object)
		}
	}
}

// partial holds a budget-stopped answer to true matches only: each a
// live object at its exact distance, at most once, and for range within
// the radius.
func (ck *oracleCheck) partial(i int, got, ranked []Match) {
	ck.t.Helper()
	byOID := make(map[uint64]Match, len(ranked))
	for _, m := range ranked {
		byOID[m.OID] = m
	}
	if ck.op.k > 0 && len(got) > ck.op.k {
		ck.fail("query %d: partial holds %d matches, k = %d", i, len(got), ck.op.k)
	}
	for _, m := range got {
		want, ok := byOID[m.OID]
		if !ok || want.Distance != m.Distance || (ck.op.k == 0 && m.Distance > ck.op.radius) {
			ck.fail("query %d: partial match (%d, %v) is not a true match", i, m.OID, m.Distance)
		}
		delete(byOID, m.OID)
	}
}

// shardTrees reruns the op's queries on each shard tree directly: as
// one batch and each alone with the parent-distance lemma off, and each
// alone with it on. The three agree bit for bit and match brute force
// over the shard's members. On the tree side a range answer is the
// shards' answers concatenated in shard order.
func (ck *oracleCheck) shardTrees(res, ranked [][]Match, treeSide bool) {
	ck.t.Helper()
	op := ck.op
	concat := make([][]Match, len(op.qs))
	for si, sh := range ck.ix.set.Shards() {
		run := func(qs []Object, pd bool) [][]Match {
			ck.t.Helper()
			tr := NewQueryTrace()
			opt := mtree.QueryOptions{UseParentDist: pd, Trace: tr}
			sh.Tree.ResetCounters()
			var out [][]Match
			var err error
			switch {
			case len(qs) > 1 && op.k > 0:
				out, err = sh.Tree.NNBatch(qs, op.k, opt)
			case len(qs) > 1:
				out, err = sh.Tree.RangeBatch(qs, op.radius, opt)
			case op.k > 0:
				var ms []Match
				ms, err = sh.Tree.NN(qs[0], op.k, opt)
				out = [][]Match{ms}
			default:
				var ms []Match
				ms, err = sh.Tree.Range(qs[0], op.radius, opt)
				out = [][]Match{ms}
			}
			if err != nil {
				ck.fail("shard %d lemma=%v: %v", si, pd, err)
			}
			for i, ms := range out {
				ck.logMatches(fmt.Sprintf("shard %d lemma=%v queries=%d slot %d", si, pd, len(qs), i), sh.Global(ms))
			}
			fmt.Fprintf(&ck.log, "trace %s counters %d %d\n", tr, sh.Tree.NodeReads(), sh.Tree.DistanceCount())
			return out
		}
		members := make(map[uint64]bool, len(sh.OIDs))
		for _, gid := range sh.OIDs {
			members[gid] = true
		}
		batch := run(op.qs, false)
		for i, q := range op.qs {
			where := fmt.Sprintf("%s: query %d shard %d", ck.where, i, si)
			off := run([]Object{q}, false)[0]
			matchesEqual(ck.t, where+" batched vs alone", batch[i], off)
			matchesEqual(ck.t, where+" lemma on vs off", run([]Object{q}, true)[0], off)
			var want []Match
			for _, m := range ranked[i] {
				if members[m.OID] {
					want = append(want, m)
				}
			}
			if op.k > 0 {
				matchesEqual(ck.t, where+" vs brute force", off, want[:min(op.k, len(want))])
				continue
			}
			matchesEqual(ck.t, where+" vs brute force", canonOrder(off), withinRadius(want, op.radius))
			concat[i] = append(concat[i], off...)
		}
	}
	for i := range op.qs {
		if op.k == 0 && treeSide {
			matchesEqual(ck.t, fmt.Sprintf("%s: query %d tree side vs the shard trees' answers in shard order", ck.where, i), res[i], concat[i])
		}
	}
}
