package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"mcost/internal/metric"
)

// distTolerance absorbs the last-bit difference between the servers'
// slab kernels and metric.L2 on the same pair.
const distTolerance = 1e-9

// checkAnswer is the check every read answer gets: it is complete (not
// partial, not degraded), every match carries the distance its own
// object has from the query, a range match lies within the radius, a
// k-NN answer holds exactly k matches, and k-NN matches come in
// canonical (distance, OID) order. Range matches are not order-checked:
// a tree node answers in traversal order, the scan and the router in
// canonical order, and all three are right.
func checkAnswer(space *metric.Space, w workload, o op, q metric.Object, resp *wireResponse) error {
	if resp.Partial {
		return fmt.Errorf("partial answer")
	}
	if len(resp.Degraded) > 0 && string(resp.Degraded) != "false" && string(resp.Degraded) != `""` {
		return fmt.Errorf("degraded answer: %s", resp.Degraded)
	}
	if o.kind == opNN && len(resp.Matches) != nnK {
		return fmt.Errorf("k-NN answer holds %d matches, want %d", len(resp.Matches), nnK)
	}
	for i, m := range resp.Matches {
		if d := space.Distance(q, m.Object); math.Abs(d-m.Distance) > distTolerance {
			return fmt.Errorf("match %d (oid %d) reports distance %g, its object is at %g", i, m.OID, m.Distance, d)
		}
		if o.kind == opRange && m.Distance > w.radius {
			return fmt.Errorf("match %d (oid %d) at %g lies outside radius %g", i, m.OID, m.Distance, w.radius)
		}
		if o.kind == opNN && i > 0 && canonicalLess(m, resp.Matches[i-1]) {
			return fmt.Errorf("matches %d and %d are out of (distance, OID) order", i-1, i)
		}
	}
	return nil
}

func canonicalLess(a, b wireMatch) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.OID < b.OID
}

// insertRec is one object the generator inserted. The four instants
// bracket when the server may have applied each write: an insert is
// visible no earlier than insBegan and no later than insAcked, and the
// same for its delete (never, until one is sent).
type insertRec struct {
	oid                uint64
	obj                metric.Object
	insBegan, insAcked time.Duration
	delBegan, delAcked time.Duration
}

const never = time.Duration(math.MaxInt64)

// writeLog tracks the churn workload's acknowledged writes: what the
// oracle needs to say which objects an answer had to contain, and the
// stack of inserts still to delete.
type writeLog struct {
	mu      sync.Mutex
	byOID   map[uint64]*insertRec
	pending []*insertRec // acknowledged inserts no delete has claimed
}

func newWriteLog() *writeLog { return &writeLog{byOID: make(map[uint64]*insertRec)} }

func (l *writeLog) inserted(oid uint64, obj metric.Object, began, acked time.Duration) {
	rec := &insertRec{oid: oid, obj: obj, insBegan: began, insAcked: acked, delBegan: never, delAcked: never}
	l.mu.Lock()
	l.byOID[oid] = rec
	l.pending = append(l.pending, rec)
	l.mu.Unlock()
}

// popForDelete claims the most recent undeleted insert, or nil.
func (l *writeLog) popForDelete(began time.Duration) *insertRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		return nil
	}
	rec := l.pending[len(l.pending)-1]
	l.pending = l.pending[:len(l.pending)-1]
	rec.delBegan = began
	return rec
}

func (l *writeLog) deleted(rec *insertRec, acked time.Duration) {
	l.mu.Lock()
	rec.delAcked = acked
	l.mu.Unlock()
}

// oracle compares sampled answers OID for OID with a brute-force scan
// over the benchmark's own copy of the data.
type oracle struct {
	w      workload
	in     *inputs
	writes *writeLog
}

// expected is the scan's answer to a read that ran over [began, ended].
// The indexed dataset is never deleted from, so it always counts. An
// inserted object counts when it was certainly live for the whole
// read — acknowledged before it began, no delete sent before it
// ended — or when the answer itself contains it and it may have been
// live at some point of the read. Any object in neither group that was
// live would, if it belonged in the answer, be in it; so the scan over
// this set is exactly what a correct server returns.
func (or *oracle) expected(r *result) ([]wireMatch, error) {
	q := or.in.pool[r.op.index]
	cand := make([]wireMatch, 0, len(or.in.objects)+16)
	for i, o := range or.in.objects {
		cand = append(cand, wireMatch{OID: uint64(i), Distance: or.in.space.Distance(q, o)})
	}
	or.writes.mu.Lock()
	inAnswer := make(map[uint64]bool)
	for _, m := range r.matches {
		if m.OID >= uint64(len(or.in.objects)) {
			inAnswer[m.OID] = true
		}
	}
	var err error
	for oid, rec := range or.writes.byOID {
		certain := rec.insAcked <= r.began && rec.delBegan >= r.ended
		possible := rec.insBegan <= r.ended && rec.delAcked >= r.began
		if inAnswer[oid] && !possible {
			err = fmt.Errorf("answer holds oid %d, which was not live during the read", oid)
		}
		if certain || inAnswer[oid] {
			cand = append(cand, wireMatch{OID: oid, Distance: or.in.space.Distance(q, rec.obj)})
		}
		delete(inAnswer, oid)
	}
	or.writes.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for oid := range inAnswer {
		return nil, fmt.Errorf("answer holds oid %d, which was never indexed or inserted", oid)
	}
	sort.Slice(cand, func(i, j int) bool { return canonicalLess(cand[i], cand[j]) })
	if r.op.kind == opNN {
		return cand[:nnK], nil
	}
	n := sort.Search(len(cand), func(i int) bool { return cand[i].Distance > or.w.radius })
	return cand[:n], nil
}

// verify compares one sampled answer with the scan.
func (or *oracle) verify(r *result) error {
	want, err := or.expected(r)
	if err != nil {
		return err
	}
	got := append([]wireMatch(nil), r.matches...)
	sort.Slice(got, func(i, j int) bool { return canonicalLess(got[i], got[j]) })
	if len(got) != len(want) {
		return fmt.Errorf("%s of pool[%d]: %d matches, the scan finds %d", r.op.kind, r.op.index, len(got), len(want))
	}
	for i := range want {
		if got[i].OID != want[i].OID || math.Abs(got[i].Distance-want[i].Distance) > distTolerance {
			return fmt.Errorf("%s of pool[%d]: match %d is oid %d at %g, the scan finds oid %d at %g",
				r.op.kind, r.op.index, i, got[i].OID, got[i].Distance, want[i].OID, want[i].Distance)
		}
	}
	return nil
}

// verifyAll checks every sampled answer among the results, marks the
// mismatching ones failed, and returns how many it compared.
func (or *oracle) verifyAll(results []result) (checked int) {
	for i := range results {
		r := &results[i]
		if !r.op.oracle || r.failure != "" {
			continue
		}
		checked++
		if err := or.verify(r); err != nil {
			r.failure = "oracle: " + err.Error()
		}
		r.matches = nil
	}
	return checked
}
