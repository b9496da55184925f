package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"mcost/internal/obs"
)

// phases are the shares of a round's traffic time given to the warm-up
// (discarded: it fills the result cache, grows the servers' heaps and
// opens the keep-alive connections), the closed loop and the open loop.
type phases struct{ warm, closed, open float64 }

var (
	// timedPhases shape an end-to-end round: closed loop only, because
	// no open-loop latency repeats within its bound on this machine
	// (README.md, "Demoted").
	timedPhases = phases{warm: 0.10, closed: 0.90}
	// tracedPhases shape the live round of a per-layer run, which
	// reports the open loop's numbers without a bound.
	tracedPhases = phases{warm: 0.08, closed: 0.55, open: 0.37}
)

// liveReport is what one round against live servers measured.
type liveReport struct {
	setupS       float64 // first process start to last /healthz ready
	closed       []result
	closedStart  time.Duration // when the closed loop began, on the results' clock
	closedWindow float64       // seconds
	open         openReport
	rssMiB       float64
	genCPUShare  float64 // generator CPU time / (wall time x CPUs) over both windows
	// counters holds, per server process (nodes first, then the router),
	// how far each /v1/stats counter moved over both windows.
	counters      []map[string]int64
	hopUS         []float64 // router latency minus slowest direct node call, per probe query
	oracleChecked int
}

// fetchCounters reads a server's /v1/stats counters.
func fetchCounters(ctx context.Context, client *http.Client, url string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/stats: status %d", url, resp.StatusCode)
	}
	var env obs.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("%s/v1/stats: %w", url, err)
	}
	return env.Metrics.Counters, nil
}

// runLive boots the workload's servers on dataFile, drives them through
// the phases over a total of seconds, checks the sampled answers and
// stops the servers. hopProbes > 0 additionally times that many queries
// through the router and straight at each node.
func (e *env) runLive(ctx context.Context, w workload, in *inputs, dataFile string, seed int64, seconds float64, ph phases, hopProbes int) (*liveReport, error) {
	admin := &http.Client{Timeout: 5 * time.Second}
	dep, took, err := e.boot(ctx, w, dataFile, admin)
	if err != nil {
		return nil, err
	}
	defer dep.stop()
	rep := &liveReport{setupS: took.Seconds()}

	g := newGenerator(w, in, dep.front, seed)
	defer g.close()
	window := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	g.closedLoop(ctx, window(ph.warm), 0)

	before := make([]map[string]int64, len(dep.procs()))
	for i, p := range dep.procs() {
		if before[i], err = fetchCounters(ctx, admin, p.url); err != nil {
			return nil, err
		}
	}
	cpu0, wall0 := cpuSeconds(), time.Now()
	rep.closedStart, rep.closedWindow = g.now(), window(ph.closed).Seconds()
	rep.closed = g.closedLoop(ctx, window(ph.closed), 1)
	if ph.open > 0 {
		rep.open = g.openLoop(ctx, window(ph.open), 2)
	}
	rep.genCPUShare = (cpuSeconds() - cpu0) / (time.Since(wall0).Seconds() * float64(runtime.NumCPU()))
	for i, p := range dep.procs() {
		after, err := fetchCounters(ctx, admin, p.url)
		if err != nil {
			return nil, err
		}
		for name, v := range after {
			after[name] = v - before[i][name]
		}
		rep.counters = append(rep.counters, after)
	}
	if rep.rssMiB, err = dep.peakRSSMiB(); err != nil {
		return nil, err
	}
	if hopProbes > 0 && dep.router != nil {
		if rep.hopUS, err = g.routerHop(ctx, dep, hopProbes); err != nil {
			return nil, err
		}
	}

	or := &oracle{w: w, in: in, writes: g.writes}
	rep.oracleChecked = or.verifyAll(rep.closed) + or.verifyAll(rep.open.results)
	if failures(rep.closed)+failures(rep.open.results) == 0 {
		dep.stop()
		dep.removeLogs()
	}
	return rep, nil
}

// routerHop times probes range queries through the router and then
// straight at every node, one at a time on an idle deployment. The
// router cannot answer before its slowest shard has, so what it adds
// is its own latency minus the slowest direct call.
func (g *generator) routerHop(ctx context.Context, dep *deployment, probes int) ([]float64, error) {
	timed := func(base string, body []byte) (float64, error) {
		began := time.Now()
		_, err := g.post(ctx, base+"/v1/range", body)
		return float64(time.Since(began)) / float64(time.Microsecond), err
	}
	var hops []float64
	for i := 0; i < probes; i++ {
		body := g.in.rangeBody[i%len(g.in.rangeBody)]
		viaRouter, err := timed(dep.router.url, body)
		if err != nil {
			return nil, fmt.Errorf("router hop probe: %w", err)
		}
		var slowest float64
		for _, n := range dep.nodes {
			direct, err := timed(n.url, body)
			if err != nil {
				return nil, fmt.Errorf("router hop probe: %w", err)
			}
			slowest = max(slowest, direct)
		}
		hops = append(hops, viaRouter-slowest)
	}
	return hops, nil
}

func failures(rs []result) int {
	n := 0
	for _, r := range rs {
		if r.failure != "" {
			n++
		}
	}
	return n
}

// latencies returns the latencies, in milliseconds, of a window's
// successful ops of one kind.
func latencies(rs []result, kind opKind) []float64 {
	var out []float64
	for i := range rs {
		if r := &rs[i]; r.failure == "" && r.op.kind == kind {
			out = append(out, r.latencyMS())
		}
	}
	return out
}
