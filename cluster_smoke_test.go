package mcost

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"syscall"
	"testing"
	"time"

	"mcost/internal/dataset"
	"mcost/internal/metric"
	"mcost/internal/server"
	"mcost/internal/workload"
)

// TestClusterSmoke drives the real binaries end to end: three
// mcost-serve shard-node processes behind one mcost-router process,
// under the closed-loop HTTP workload generator. Mid-run one node is
// killed; from then on the router must keep answering with typed
// degraded partials (never a 5xx or a transport error at the client),
// its health loop must open the dead endpoint's breaker, and the
// degraded results must be bit-identical to querying the surviving
// nodes directly.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level cluster smoke; skipped with -short")
	}

	bin := t.TempDir()
	serveBin := filepath.Join(bin, "mcost-serve")
	routerBin := filepath.Join(bin, "mcost-router")
	for target, out := range map[string]string{
		"./cmd/mcost-serve":  serveBin,
		"./cmd/mcost-router": routerBin,
	} {
		cmd := exec.Command("go", "build", "-o", out, target)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", target, err, b)
		}
	}

	ports := freePorts(t, 4)
	nodeAddrs := []string{
		fmt.Sprintf("127.0.0.1:%d", ports[0]),
		fmt.Sprintf("127.0.0.1:%d", ports[1]),
		fmt.Sprintf("127.0.0.1:%d", ports[2]),
	}
	routerAddr := fmt.Sprintf("127.0.0.1:%d", ports[3])

	// The nodes index the same deterministic dataset the test rebuilds
	// in-process for its query pool.
	const nObjects, dim, seed = 600, 4, 7
	var nodes []*exec.Cmd
	var nodeLogs []*bytes.Buffer
	for i, addr := range nodeAddrs {
		cmd := exec.Command(serveBin,
			"-dataset", "uniform", "-n", strconv.Itoa(nObjects), "-dim", strconv.Itoa(dim),
			"-seed", strconv.Itoa(seed), "-workers", "1",
			"-shards", "3", "-shard-index", strconv.Itoa(i),
			"-addr", addr)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, &buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes = append(nodes, cmd)
		nodeLogs = append(nodeLogs, &buf)
	}
	var routerLog bytes.Buffer
	router := exec.Command(routerBin,
		"-addr", routerAddr,
		"-model-wait", "60s",
		"-health-interval", "20ms",
		"-breaker-fails", "2", "-breaker-cooldown", "1h",
		"-retries", "1", "-retry-base", "5ms", "-retry-max", "20ms",
		"-min-shard-timeout", "2s",
		nodeAddrs[0], nodeAddrs[1], nodeAddrs[2])
	router.Stdout, router.Stderr = &routerLog, &routerLog
	routerStarted := time.Now()
	if err := router.Start(); err != nil {
		t.Fatalf("start router: %v", err)
	}
	dumpLogs := func() {
		for i, b := range nodeLogs {
			t.Logf("node %d output:\n%s", i, b.String())
		}
		t.Logf("router output:\n%s", routerLog.String())
	}
	t.Cleanup(func() {
		if t.Failed() {
			dumpLogs()
		}
		for _, p := range append(nodes, router) {
			if p.Process != nil {
				_ = p.Process.Signal(syscall.SIGTERM)
			}
		}
		for _, p := range append(nodes, router) {
			_ = p.Wait()
		}
	})

	for i, addr := range nodeAddrs {
		waitHealthy(t, "http://"+addr, fmt.Sprintf("node %d", i))
	}
	nodesUp := time.Now()
	routerURL := "http://" + routerAddr
	waitHealthy(t, routerURL, "router")
	// The router polls the nodes' /v1/model every 10ms, however long the
	// nodes take, so it turns healthy within a poll or two of the last
	// node.
	if took, lag := nodesUp.Sub(routerStarted), time.Since(nodesUp); lag > 100*time.Millisecond {
		t.Errorf("router turned healthy %v after the last node (nodes took %v), want within 100ms", lag, took)
	}

	d := dataset.Uniform(nObjects, dim, seed)
	mix := &workload.Workload{Classes: []workload.QueryClass{
		{Name: "lookup", Weight: 3, Radius: 0.15},
		{Name: "discovery", Weight: 1, Radius: 0.4},
		{Name: "top10", Weight: 1, K: 10},
	}}

	// Phase 1: healthy cluster. Nothing sheds, nothing degrades,
	// nothing errors, every range match is within its radius.
	rep, err := server.RunHTTP(routerURL, mix, d.Objects, server.HTTPOptions{
		Requests: 200, Workers: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Invalid != 0 || rep.Degraded != 0 {
		t.Fatalf("healthy phase: errors=%d invalid=%d degraded=%d, want all 0 (report %+v)",
			rep.Errors, rep.Invalid, rep.Degraded, rep)
	}
	if rep.OK == 0 {
		t.Fatalf("healthy phase: no OK responses (report %+v)", rep)
	}

	// Phase 2: kill node 1 mid-run. The router must absorb it — the
	// client sees typed degraded 200s, never an error, and results stay
	// within radius.
	const dead = 1
	phase2 := make(chan struct{})
	var rep2 *server.HTTPReport
	var err2 error
	go func() {
		defer close(phase2)
		rep2, err2 = server.RunHTTP(routerURL, mix, d.Objects, server.HTTPOptions{
			Requests: 400, Workers: 8, Seed: 5,
		})
	}()
	time.Sleep(100 * time.Millisecond)
	if err := nodes[dead].Process.Kill(); err != nil {
		t.Fatalf("kill node %d: %v", dead, err)
	}
	<-phase2
	if err2 != nil {
		t.Fatal(err2)
	}
	if rep2.Errors != 0 {
		t.Errorf("failover phase: %d client-visible errors, want 0 (report %+v)", rep2.Errors, rep2)
	}
	if rep2.Invalid != 0 {
		t.Errorf("failover phase: %d out-of-radius matches, want 0", rep2.Invalid)
	}
	if rep2.Degraded == 0 {
		t.Errorf("failover phase: no degraded responses although a shard died (report %+v)", rep2)
	}

	// The health loop must open the dead node's breaker.
	opens := 0
	deadline := time.Now().Add(10 * time.Second)
	re := regexp.MustCompile(`"router\.breaker_opens":\s*(\d+)`)
	for time.Now().Before(deadline) {
		body := httpGet(t, routerURL+"/v1/stats")
		if m := re.FindSubmatch(body); m != nil {
			opens, _ = strconv.Atoi(string(m[1]))
			if opens > 0 {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if opens == 0 {
		t.Error("router.breaker_opens stayed 0 after the node was killed")
	}

	// Bit-identical degradation: the router's answers with the dead
	// shard must equal merging the surviving nodes' own answers.
	survivors := []string{"http://" + nodeAddrs[0], "http://" + nodeAddrs[2]}
	for qi := 0; qi < 5; qi++ {
		q := d.Objects[qi*37]

		got := queryMatches(t, routerURL, q, 0.4, 0)
		var want []server.MatchJSON
		for _, base := range survivors {
			want = append(want, queryMatches(t, base, q, 0.4, 0)...)
		}
		assertSmokeMatches(t, fmt.Sprintf("q%d range", qi), got, want)

		got = queryMatches(t, routerURL, q, 0, 10)
		want = nil
		for _, base := range survivors {
			want = append(want, queryMatches(t, base, q, 0, 10)...)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Distance != want[j].Distance {
				return want[i].Distance < want[j].Distance
			}
			return want[i].OID < want[j].OID
		})
		if len(want) > 10 {
			want = want[:10]
		}
		assertSmokeMatches(t, fmt.Sprintf("q%d nn", qi), got, want)
	}
}

// queryMatches asks the endpoint at base for q's k nearest neighbours
// or, with k = 0, for its range at radius.
func queryMatches(t *testing.T, base string, q metric.Object, radius float64, k int) []server.MatchJSON {
	t.Helper()
	cl := server.NewClient(base, nil)
	var (
		qr  *server.QueryResponse
		err error
	)
	if k > 0 {
		qr, err = cl.NN(context.Background(), q, k)
	} else {
		qr, err = cl.Range(context.Background(), q, radius)
	}
	if err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	return qr.Matches
}

func assertSmokeMatches(t *testing.T, label string, got, want []server.MatchJSON) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d matches, want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].OID != want[i].OID || got[i].Distance != want[i].Distance {
			t.Errorf("%s: match %d = (oid %d, dist %v), want (oid %d, dist %v)",
				label, i, got[i].OID, got[i].Distance, want[i].OID, want[i].Distance)
			return
		}
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return buf.Bytes()
}

// waitHealthy polls /healthz until it answers 200, failing after a
// generous boot deadline.
func waitHealthy(t *testing.T, base, label string) {
	t.Helper()
	cl := server.NewClient(base, nil)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cl.Health(context.Background()) == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s at %s never became healthy", label, base)
}

// freePorts reserves n distinct localhost ports and releases them for
// the child processes to bind.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	var listeners []net.Listener
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	return ports
}
