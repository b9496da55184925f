package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/mtree"
)

// boundCase is one metric space of the bound's safety matrix: objects
// to index, fresh ones to insert afterwards, and queries.
type boundCase struct {
	name    string
	space   *metric.Space
	objects []metric.Object
	fresh   []metric.Object
	queries []metric.Object
	radii   []float64
}

func boundCases() []boundCase {
	split := func(name string, space *metric.Space, objs, qs []metric.Object, radii ...float64) boundCase {
		n := len(objs) - 60
		// Members as queries put distance 0 and pivot ties on the table;
		// outside queries follow the data without belonging to it.
		return boundCase{name: name, space: space, objects: objs[:n], fresh: objs[n:],
			queries: append(append([]metric.Object(nil), objs[:8]...), qs...), radii: radii}
	}
	vec := dataset.PaperClustered(560, 3, 31)
	vq := dataset.PaperClusteredQueries(12, 3, 31).Queries
	// A coarse grid of tenths: members sit at equal distances from two
	// pivots and on the segments between them, where the hyperplane bound
	// holds with equality, and no coordinate is a binary fraction, so the
	// computed distances carry rounding (0.9−0.3 > 0.6).
	rng := rand.New(rand.NewSource(17))
	grid := make([]metric.Object, 460)
	for i := range grid {
		grid[i] = metric.Vector{float64(rng.Intn(11)) / 10, float64(rng.Intn(11)) / 10}
	}
	words := dataset.Words(860, 32) // a seed whose farthest-point pivots leave no shard of one word
	hdc := dataset.HDC(460, 32, 29)
	return []boundCase{
		split("L2", metric.VectorSpace("L2", 3), vec.Objects, vq, 0, 0.05, 0.2),
		split("Linf", vec.Space, vec.Objects, vq, 0, 0.05, 0.2),
		split("L2-grid", metric.VectorSpace("L2", 2), grid, grid[100:108], 0, 0.1, 0.2, 0.3),
		split("edit", words.Space, words.Objects, dataset.WordQueries(12, 23).Queries, 0, 1, 2, 3),
		split("hamming", hdc.Space, hdc.Objects, dataset.HDCQueries(12, 32, 29).Queries, 0, 4, 9, 12),
	}
}

// bruteForce returns q's distance to every live member, per shard and
// in one sorted list.
func bruteForce(set *Set, q metric.Object) (perShard [][]mtree.Match, all []mtree.Match) {
	perShard = make([][]mtree.Match, set.NumShards())
	for i, sh := range set.Shards() {
		for local, o := range sh.Objects {
			m := mtree.Match{OID: sh.OIDs[local], Object: o, Distance: set.space.Distance(q, o)}
			perShard[i] = append(perShard[i], m)
			all = append(all, m)
		}
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	return perShard, all
}

func within(ms []mtree.Match, r float64) []mtree.Match {
	var out []mtree.Match
	for _, m := range ms {
		if m.Distance <= r {
			out = append(out, m)
		}
	}
	return out
}

// checkBound runs every (query, radius) of c against set and returns
// how many shard visits the bound saved. A shard counts as skipped when
// the query read no node of its tree.
func checkBound(t *testing.T, c boundCase, set *Set) (skipped int64) {
	t.Helper()
	opt := QueryOptions{UseParentDist: true}
	const k = 7
	for qi, q := range c.queries {
		perShard, all := bruteForce(set, q)
		// The distances of actual neighbours are radii at which a match
		// sits exactly on the query ball.
		radii := append([]float64(nil), c.radii...)
		for _, rank := range []int{0, 4, 19} {
			radii = append(radii, all[rank].Distance)
		}
		for _, r := range radii {
			set.ResetCosts()
			got, err := set.Range(q, r, opt)
			if err != nil {
				t.Fatal(err)
			}
			if want := within(all, r); !sameSets(got, want) {
				t.Fatalf("%s q%d r=%v: range returned %d matches, brute force %d", c.name, qi, r, len(got), len(want))
			}
			var unread int64
			for i, sh := range set.Shards() {
				if sh.Tree.NodeReads() > 0 {
					continue
				}
				unread++
				if n := len(within(perShard[i], r)); n != 0 {
					t.Fatalf("%s q%d r=%v: skipped shard %d holds %d matches", c.name, qi, r, i, n)
				}
			}
			if unread != set.ShardsSkipped() {
				t.Fatalf("%s q%d r=%v: %d shards unread, %d counted skipped", c.name, qi, r, unread, set.ShardsSkipped())
			}
			skipped += unread
			batch, err := set.RangeBatch([]metric.Object{q}, r, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSets(batch[0], got) {
				t.Fatalf("%s q%d r=%v: RangeBatch differs from Range", c.name, qi, r)
			}
		}

		nn, err := set.NN(q, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := set.NNBatch([]metric.Object{q}, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range [][]mtree.Match{nn, batch[0]} {
			if len(got) != k {
				t.Fatalf("%s q%d: k-NN returned %d matches, want %d", c.name, qi, len(got), k)
			}
			for i, m := range got {
				// Exact k-NN fixes the distance sequence; which of several
				// objects tied at the k-th distance appear is the engine's
				// choice, so members are checked for truth, not identity.
				if m.Distance != all[i].Distance || set.space.Distance(q, m.Object) != m.Distance {
					t.Fatalf("%s q%d: k-NN rank %d = (oid %d, %v), brute force distance %v",
						c.name, qi, i, m.OID, m.Distance, all[i].Distance)
				}
			}
		}
	}
	return skipped
}

// TestHyperplaneBoundNeverSkipsAMatch is the safety matrix of
// LowerBounds: over float and integer-valued metrics, at every shard
// count, at radius 0 and at radii equal to actual neighbour distances,
// before and after fresh objects are routed in by Set.Insert, a shard
// the bound skips holds no match and k-NN equals brute force.
func TestHyperplaneBoundNeverSkipsAMatch(t *testing.T) {
	for _, c := range boundCases() {
		for _, shards := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("%s/s=%d", c.name, shards), func(t *testing.T) {
				set, err := Build(c.space, c.objects, Options{Shards: shards, Assign: Pivot, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				skipped := checkBound(t, c, set)
				for _, o := range c.fresh {
					if _, _, err := set.Insert(o); err != nil {
						t.Fatal(err)
					}
				}
				skipped += checkBound(t, c, set)
				if skipped == 0 {
					t.Error("the bound skipped no shard at all: the matrix checks nothing")
				}

				// Round-robin shards have no pivots and so no bound.
				rr, err := Build(c.space, c.objects, Options{Shards: shards, Assign: RoundRobin, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if n := checkBound(t, c, rr); n != 0 {
					t.Errorf("round-robin set skipped %d shard visits without a bound to justify it", n)
				}
			})
		}
	}
}

// TestLowerBoundsSurviveRounding walks every placement of two pivots, a
// member and a query on a line of tenths — collinear, so the hyperplane
// bound holds with equality all the time, and in coordinates no binary
// float holds exactly. The member is in shard 0 by the build's rule
// (nearest pivot, ties to the lower index); the bound on shard 0 must
// not exceed the computed query-to-member distance, the number a range
// query compares with its radius. The unguarded formula does exceed it,
// e.g. pivots 0.9 and 0.1, member 0.5, query 0.3: (0.6000000000000001 −
// 0.19999999999999998)/2 > 0.2.
func TestLowerBoundsSurviveRounding(t *testing.T) {
	space := metric.VectorSpace("L2", 1)
	at := func(i int) metric.Object { return metric.Vector{float64(i) / 10} }
	const n = 21
	unguarded := 0
	for p0 := 0; p0 < n; p0++ {
		for p1 := 0; p1 < n; p1++ {
			for x := 0; x < n; x++ {
				r0, r1 := space.Distance(at(x), at(p0)), space.Distance(at(x), at(p1))
				if r0 > r1 {
					continue // assign puts x in shard 1
				}
				balls := []Ball{{Pivot: at(p0), Radius: r0}, {Pivot: at(p1), Radius: r1}}
				for q := 0; q < n; q++ {
					d := space.Distance(at(q), at(x))
					if lb := LowerBounds(space, at(q), balls)[0]; lb > d {
						t.Fatalf("pivots %v %v, member %v, query %v: bound %v exceeds the member's distance %v",
							at(p0), at(p1), at(x), at(q), lb, d)
					}
					d0, d1 := space.Distance(at(q), at(p0)), space.Distance(at(q), at(p1))
					if max(d0-r0, (d0-min(d0, d1))/2) > d {
						unguarded++
					}
				}
			}
		}
	}
	if unguarded == 0 {
		t.Error("the unguarded bound never exceeded a member's distance: the walk checks nothing")
	}
}

// TestHyperplaneBoundOnBenchmarkCluster pins what the bound is worth on
// the benchmark's `cluster` workload (bench/workloads.go: clustered
// D=16 under L2, n=3000, data seed 1, radius 0.36, three pivot shards,
// a pool of 4000 queries the traffic seed picks out of 40000): how many
// range queries still reach 1, 2 and 3 shards, against how many shards
// hold a match at all. The pivot-ball bound alone reaches three shards
// on all but a handful.
func TestHyperplaneBoundOnBenchmarkCluster(t *testing.T) {
	const (
		dim, n, dataSeed, trafficSeed = 16, 3000, 1, 1
		radius                        = 0.36
		shards, pool                  = 3, 4000
	)
	space := metric.VectorSpace("L2", dim)
	objects := dataset.PaperClustered(n, dim, dataSeed).Objects
	parts, pivots, radii, err := assign(space, objects, Options{Shards: shards, Assign: Pivot, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	balls := make([]Ball, shards)
	for i := range balls {
		balls[i] = Ball{Pivot: objects[pivots[i]], Radius: radii[i]}
	}
	population := dataset.PaperClusteredQueries(10*pool, dim, dataSeed).Queries
	picked := rand.New(rand.NewSource(trafficSeed)).Perm(len(population))[:pool]

	reach := make([]int, shards+1) // reach[c]: queries that call c shards
	ballOnly, holding := 0, 0
	for _, pi := range picked {
		q := population[pi]
		calls := 0
		for i, lb := range LowerBounds(space, q, balls) {
			if lb <= radius {
				calls++
			}
			if space.Distance(q, balls[i].Pivot)-balls[i].Radius > radius {
				ballOnly++
			}
		}
		reach[calls]++
		for _, part := range parts {
			for _, oi := range part {
				if space.Distance(q, objects[oi]) <= radius {
					holding++
					break
				}
			}
		}
	}
	if got, want := fmt.Sprint(reach), "[0 1207 337 2456]"; got != want {
		t.Errorf("queries reaching 0/1/2/3 shards = %s, want %s", got, want)
	}
	if ballOnly != 31 {
		t.Errorf("the pivot-ball bound alone skips %d shard calls of %d, want 31", ballOnly, shards*pool)
	}
	if holding != 4329 {
		t.Errorf("%d (query, shard) pairs hold a match, want 4329 (1.08 per query)", holding)
	}
}
