package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// ledger is a file of run results: what `-out` writes and `-compare`
// reads. Claim is always null — the benchmark defines the names later
// changes quote; it claims no gain itself.
type ledger struct {
	Seconds float64      `json:"seconds"`
	Results []*runResult `json:"results"`
	Claim   *string      `json:"claim"`
}

// encode writes the ledger with one run per line: small enough to
// commit, and a changed run is a changed line in a diff.
func (l *ledger) encode() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n\"seconds\": %g,\n\"results\": [\n", l.Seconds)
	for i, r := range l.Results {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		if i < len(l.Results)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("],\n\"claim\": null\n}\n")
	return []byte(b.String()), nil
}

// manifestMetric is one end_to_end entry of BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func readLedger(path string) (*ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// values collects one end-to-end metric of one workload over a
// ledger's untraced runs.
func (l *ledger) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range l.Results {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict judges b against a for one metric: "worse" when b's median
// is worse than a's by more than the bound; "unresolved" when either
// side's own run-to-run spread exceeds the bound, so a difference of
// that size cannot be told from noise; "ok" otherwise.
func verdict(m manifestMetric, a, b []float64) (diff float64, v string) {
	ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	diff = (mb - ma) / math.Abs(ma)
	worsening := diff
	if m.Better == "higher" {
		worsening = -diff
	}
	switch {
	case math.IsNaN(diff):
		return diff, "missing"
	case quartileSpread(a) > m.Bound || quartileSpread(b) > m.Bound:
		return diff, "unresolved (spread > bound)"
	case worsening > m.Bound:
		return diff, "worse"
	}
	return diff, "ok"
}

// compareLedgers prints, per workload and end-to-end metric, both
// ledgers' medians, their relative difference and the bound, and exits
// non-zero when any metric got worse by more than its bound.
func compareLedgers(e *env, pathA, pathB string) int {
	m, err := readManifest(e.root)
	if err == nil {
		var a, b *ledger
		if a, err = readLedger(pathA); err == nil {
			b, err = readLedger(pathB)
		}
		if err == nil {
			return printComparison(m, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "mcost-bench:", err)
	return 2
}

// exactMetrics are counts of work done, not times: the same seed must
// reproduce them to the last digit on the same commit, and a change
// that moves one changed the work a query does.
var exactMetrics = []string{"mtree.nodes_per_q", "mtree.dists_per_q", "pred_err_nodes", "pred_err_dists"}

// traced returns the ledger's per-layer run of a workload and seed.
func (l *ledger) traced(workload string, seed int64) *runResult {
	for _, r := range l.Results {
		if r.Workload == workload && r.Seed == seed && r.Trace == 1 {
			return r
		}
	}
	return nil
}

func printComparison(m *manifest, a, b *ledger) int {
	code := 0
	fmt.Printf("%-11s %-14s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, w := range m.Workloads {
		for _, em := range m.EndToEnd {
			va, vb := a.values(w.Name, em.Name), b.values(w.Name, em.Name)
			diff, v := verdict(em, va, vb)
			if v == "worse" || v == "missing" {
				code = 1
			}
			fmt.Printf("%-11s %-14s %12.5g %12.5g %+7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				w.Name, em.Name, median(va), median(vb), 100*diff, 100*em.Bound, v, len(va), len(vb))
		}
	}
	compared := 0
	for _, ra := range a.Results {
		rb := b.traced(ra.Workload, ra.Seed)
		if ra.Trace != 1 || rb == nil {
			continue
		}
		for _, name := range exactMetrics {
			compared++
			if va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value; va != vb {
				fmt.Printf("%-11s %-18s seed %-4d %.12g != %.12g\n", ra.Workload, name, ra.Seed, va, vb)
			}
		}
	}
	fmt.Printf("exact counts (%v): %d compared on runs of the same workload and seed; any that differ are listed above\n",
		exactMetrics, compared)
	return code
}
