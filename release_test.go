package mcost

import (
	"fmt"
	"runtime"
	"testing"
	"weak"
)

// An arena-frozen Index keeps one copy of every vector, in its slabs:
// once the caller drops its slice, every input vector is collectable
// but the query-validation sample and the pivots. The index then holds
// no more than the slabs, the node store and its models — under 9.5 MiB
// for 10 000 uniform D=64 vectors, whose coordinates alone are 4.9 MiB.
func TestIndexReleasesInput(t *testing.T) {
	const n, dim = 10000, 64
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			before := liveHeap()
			objs := randomVectors(n, dim, 5)
			q := randomVectors(1, dim, 6)[0]
			refs := make([]weak.Pointer[float64], n)
			for i, o := range objs {
				refs[i] = weak.Make(&o.(Vector)[0])
			}
			opt := Options{Seed: 3, Workers: 1, Arena: ArenaOptions{Enabled: true}}
			ix, err := BuildSharded(VectorSpace("L2", dim), objs, opt, ShardOptions{Shards: shards, Assign: ShardPivot})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ix.NN(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			objs = nil
			footprint := liveHeap() - before

			kept := 0
			for _, r := range refs {
				if r.Value() != nil {
					kept++
				}
			}
			t.Logf("%d input vectors kept; the index holds %.2f MiB", kept, footprint/(1<<20))
			if kept > 2*shards+1 {
				t.Errorf("%d of %d input vectors outlive the caller's slice; want at most %d (the sample and the pivots)", kept, n, 2*shards+1)
			}
			if footprint > 9.5*(1<<20) {
				t.Errorf("the index holds %.2f MiB after GC; want at most 9.5 MiB", footprint/(1<<20))
			}
			got, err := ix.NN(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			sameSets(t, "nn after the input is gone", got, want)
		})
	}
}

// liveHeap returns the bytes of live heap after full collections: two,
// because a pooled query scratch keeps its last results, and with them
// a slab, until a second collection drains sync.Pool's victim cache.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
