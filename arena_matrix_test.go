package mcost

import (
	"context"
	"errors"
	"testing"

	"mcost/internal/dataset"
)

// The arena at the facade: a budget stop and fault injection. That the
// arena answers exactly as the memory and paged layouts do is
// TestOracle's (oracle_test.go).

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
