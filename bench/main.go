// Command mcost-bench is the repository's benchmark: it builds
// cmd/mcost-serve and cmd/mcost-router from the checkout it runs in,
// boots them on loopback ports, drives them from this one process with
// one keep-alive connection per CPU, checks the answers against a
// brute-force scan, and prints every metric by name and unit.
//
//	bash bench/run.sh --workload tree-l2 --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh                      # every workload, both modes
//	bash bench/run.sh -out a.json -runs 5  # a ledger file for -compare
//	bash bench/run.sh -compare a.json b.json
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics: in-process timings of each package's
// public calls, a traced replay of the workload, and the live counters.
// README.md holds the glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// watchdog ends a run that has not finished by itself, inside the 180
// seconds the driver allows one, taking the servers down with it.
const watchdog = 170 * time.Second

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the line the driver reads, plus
// what identifies the run in a ledger file.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples counts what stands behind a metric: ops for a percentile,
	// repeats for a median.
	Samples map[string]int `json:"samples"`
	// OracleChecked is how many answers were compared with the scan.
	OracleChecked int `json:"oracle_checked"`
	// FirstFailures quotes up to five failed ops.
	FirstFailures []string `json:"first_failures,omitempty"`
}

func (r *runResult) set(name, unit string, value float64, samples int) {
	r.Metrics[name] = metricValue{Value: value, Unit: unit}
	r.Samples[name] = samples
}

// driverLine is the result object the driver expects as the last line
// of standard output.
func (r *runResult) driverLine() string {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // floats and strings only; NaN is replaced before this
	}
	return string(line)
}

func (r *runResult) print() {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("  %-32s %14.6g %-6s (n=%d)\n", name, m.Value, m.Unit, r.Samples[name])
	}
	failRate := 0.0
	if r.Attempted > 0 {
		failRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  attempted %d  failed %d  fail_rate %.6f  oracle_checked %d  correct %v\n",
		r.Attempted, r.Failed, failRate, r.OracleChecked, r.Correct)
	for _, f := range r.FirstFailures {
		fmt.Printf("  failure: %s\n", f)
	}
}

// noteFailures counts a window's ops into the result and quotes the
// first few failures.
func (r *runResult) noteFailures(rs []result) {
	r.Attempted += len(rs)
	for i := range rs {
		if rs[i].failure == "" {
			continue
		}
		r.Failed++
		if len(r.FirstFailures) < 5 {
			r.FirstFailures = append(r.FirstFailures, fmt.Sprintf("%s: %s", rs[i].op.kind, rs[i].failure))
		}
	}
}

// tailMetrics are client-side latencies reported per layer, without a
// bound: on this machine no estimate of them repeats within 25 % (see
// README.md, "Demoted").
var tailMetrics = []string{"range_p99_ms", "nn_p95_ms", "open_p50_ms", "open_p95_ms"}

// clientMetrics are the client-side numbers of one closed-loop window of
// the given length in seconds and, where there was one, the open loop.
func clientMetrics(closed []result, seconds float64, open []result) (values map[string]float64, samples map[string]int) {
	values, samples = map[string]float64{}, map[string]int{}
	set := func(name string, v float64, n int) { values[name], samples[name] = v, n }
	ok := len(closed) - failures(closed)
	set("qps", float64(ok)/seconds, ok)
	rng, nn := latencies(closed, opRange), latencies(closed, opNN)
	set("range_p50_ms", median(rng), len(rng))
	set("range_p99_ms", percentile(rng, 99), len(rng))
	set("nn_p50_ms", median(nn), len(nn))
	set("nn_p95_ms", percentile(nn, 95), len(nn))
	var lat []float64
	for i := range open {
		if r := &open[i]; r.failure == "" {
			lat = append(lat, r.latencyMS())
		}
	}
	set("open_p50_ms", median(lat), len(lat))
	set("open_p95_ms", percentile(lat, 95), len(lat))
	return values, samples
}

// windowsOf cuts a closed loop into windows of about windowSeconds, by
// the time each op was answered, and returns them with their common
// length in seconds. Ops answered after the loop's end, while it
// drained, belong to no window.
func windowsOf(rep *liveReport) ([][]result, float64) {
	n := max(1, int(math.Round(rep.closedWindow/windowSeconds)))
	each := rep.closedWindow / float64(n)
	windows := make([][]result, n)
	for _, r := range rep.closed {
		if i := int((r.ended - rep.closedStart).Seconds() / each); i < n {
			windows[i] = append(windows[i], r)
		}
	}
	return windows, each
}

// endToEnd measures what a client of the service sees, tracing off. It
// boots the servers boots times — setup_s is the median — and keeps the
// last deployment for the traffic: a warm-up, then one closed loop, cut
// into windows of windowSeconds; every traffic metric is its best
// window's. The sandbox's noise is one-sided — a neighbour only ever
// slows the servers down — and comes in bursts of seconds with quiet
// seconds in between, so the best window of the run is the value the
// quiet machine gives, while a slower commit is slower in every window
// (README.md has the measurements behind the window length). All windows
// share one deployment so that a result cache is measured as it serves,
// warm, and not while it fills.
func (e *env) endToEnd(ctx context.Context, w workload, seed int64, seconds float64) (*runResult, error) {
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	r := &runResult{Workload: w.name, Seed: seed, Seconds: seconds,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}}
	dataFile, err := e.writeDataset(w, in)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 1; i < boots; i++ {
		dep, took, err := e.boot(ctx, w, dataFile, &http.Client{Timeout: 5 * time.Second})
		if err != nil {
			return nil, err
		}
		dep.stop()
		dep.removeLogs()
		setups = append(setups, took.Seconds())
	}
	rep, err := e.runLive(ctx, w, in, dataFile, seed, seconds, timedPhases, 0)
	if err != nil {
		return nil, err
	}
	r.OracleChecked = rep.oracleChecked
	r.noteFailures(rep.closed)
	setups = append(setups, rep.setupS)
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("rss_mb", "MiB", rep.rssMiB, 1)

	windows, each := windowsOf(rep)
	values := make([]map[string]float64, len(windows))
	samples := make([]map[string]int, len(windows))
	for i, ops := range windows {
		values[i], samples[i] = clientMetrics(ops, each, nil)
	}
	// best reports the window whose value of the metric is best; a
	// window without samples (NaN) never is.
	best := func(name, unit string, better func(a, b float64) bool) {
		at := 0
		for i := range values {
			if v := values[i][name]; better(v, values[at][name]) || math.IsNaN(values[at][name]) {
				at = i
			}
		}
		r.set(name, unit, values[at][name], samples[at][name])
	}
	lower := func(a, b float64) bool { return a < b }
	best("qps", "ops/s", func(a, b float64) bool { return a > b })
	best("range_p50_ms", "ms", lower)
	best("nn_p50_ms", "ms", lower)
	r.Correct = r.Failed == 0 && r.OracleChecked > 0
	return r, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them)")
		seed    = flag.Int64("seed", 42, "seed every input is generated from")
		seconds = flag.Float64("seconds", 18, "seconds of live traffic per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and the traced replay (default: both)")
		runs    = flag.Int("runs", 1, "runs per workload and mode, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "write the ledger (every run's result) to this file")
		compare = flag.Bool("compare", false, "compare two ledger files given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()

	e, err := findEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcost-bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "mcost-bench: -compare takes two ledger files")
			return 2
		}
		return compareLedgers(e, flag.Arg(0), flag.Arg(1))
	}

	// Children die with the run on every path out of it: a signal or the
	// watchdog cancels ctx and kills them, a panic unwinds through the
	// deferred kill, and Pdeathsig covers the benchmark being killed
	// outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killChildren()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintln(os.Stderr, "mcost-bench: panic:", p)
			code = 2
		}
	}()

	if err := e.buildServers(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mcost-bench:", err)
		return 2
	}
	one := func(w workload, seed int64, trace int) (*runResult, error) {
		ctx, cancel := context.WithTimeout(ctx, watchdog)
		defer cancel()
		if trace == 1 {
			return e.perLayer(ctx, w, seed, *seconds)
		}
		return e.endToEnd(ctx, w, seed, *seconds)
	}

	// One loop serves both uses. The driver names a workload and a trace
	// mode and reads the result line; with either left out the run covers
	// all of them and ends with the ledger.
	selected, traces := workloads, []int{0, 1}
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcost-bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace" {
			traces = []int{*trace}
		}
	})
	led := ledger{Seconds: *seconds}
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			for _, trace := range traces {
				r, err := one(w, *seed+int64(i), trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "mcost-bench:", err)
					return 1
				}
				r.Trace = trace
				r.print()
				led.Results = append(led.Results, r)
				if !r.Correct {
					code = 1
				}
			}
		}
	}
	summary, err := led.encode()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcost-bench:", err)
		return 2
	}
	if *out != "" {
		if err := os.WriteFile(*out, summary, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mcost-bench:", err)
			return 2
		}
	}
	if len(led.Results) == 1 {
		fmt.Println(led.Results[0].driverLine())
	} else {
		fmt.Print(string(summary))
	}
	return code
}
