package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcost/internal/dataset"
)

// env locates the checkout and the directories the benchmark writes.
// Nothing is read or written outside root.
type env struct {
	root string // checkout root: the directory holding go.mod of module mcost
	bin  string // built server binaries
	out  string // datasets, server logs, trace files
}

// findEnv walks up from the working directory to the root module, so
// the benchmark runs from the checkout root (run.sh) or from bench/
// (go run .).
func findEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(mod), "module mcost\n") {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no go.mod of module mcost above the working directory; run from a checkout")
		}
		dir = parent
	}
	e := &env{root: dir, bin: filepath.Join(dir, ".bench_build", "bin"), out: filepath.Join(dir, "bench", "out")}
	for _, d := range []string{e.bin, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildServers compiles the two binaries the benchmark drives from the
// checkout's own source. The go build cache makes a repeat a no-op.
func (e *env) buildServers(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/mcost-serve", "./cmd/mcost-router")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building servers: %v\n%s", err, out)
	}
	return nil
}

// proc is one server child process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once Wait has returned
}

// children tracks every live child so any exit path — normal return,
// signal, panic, watchdog — can stop them all.
var children struct {
	sync.Mutex
	live map[*proc]struct{}
}

// killChildren stops every live child at once and waits for each; the
// last resort of the signal handler and the watchdog.
func killChildren() {
	children.Lock()
	var ps []*proc
	for p := range children.live {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		_ = p.cmd.Process.Kill()
	}
	for _, p := range ps {
		<-p.done
	}
}

// freePorts asks the kernel for n unused loopback ports. All n
// listeners are open at once, so the ports differ from one another;
// asked one at a time the kernel may hand out the same port twice
// before the first child has bound it, and the second child's health
// check is then answered by the first. The listeners are closed before
// the children bind, so another process could take a port in between; a
// child that then fails to bind fails its health wait and the run
// reports it.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// start launches one binary with its output in a log file under out.
// Pdeathsig has the kernel kill the child should the benchmark itself
// die without running its cleanup.
func (e *env) start(name, binary string, port int, args ...string) (*proc, error) {
	logPath := filepath.Join(e.out, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(e.bin, binary), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*proc]struct{})
	}
	children.live[p] = struct{}{}
	children.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is read from ProcessState by stop
		children.Lock()
		delete(children.live, p)
		children.Unlock()
		close(p.done)
	}()
	return p, nil
}

// stop asks the child to drain (SIGTERM), kills it if it has not gone
// within five seconds, and returns once it has been reaped.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// waitReady polls /healthz until it answers 200, the child exits, or
// ctx ends.
func (p *proc) waitReady(ctx context.Context, client *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close() //nolint:errcheck // nothing was read from it
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready (log: %s)", p.name, p.log)
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w (log: %s)", p.name, ctx.Err(), p.log)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// peakRSSMiB reads the child's VmHWM, its peak resident set.
func (p *proc) peakRSSMiB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status of %s", p.name)
}

// deployment is a workload's running servers: the nodes and, for a
// cluster, the router in front of them. Clients talk to front.
type deployment struct {
	nodes  []*proc
	router *proc
	front  string
}

func (d *deployment) procs() []*proc {
	if d.router != nil {
		return append(append([]*proc(nil), d.nodes...), d.router)
	}
	return d.nodes
}

func (d *deployment) stop() {
	for _, p := range d.procs() {
		p.stop()
	}
}

// removeLogs deletes the server logs; called only after a run that
// found nothing wrong, so a failure leaves them under bench/out.
func (d *deployment) removeLogs() {
	for _, p := range d.procs() {
		_ = os.Remove(p.log)
	}
}

func (d *deployment) peakRSSMiB() (float64, error) {
	var sum float64
	for _, p := range d.procs() {
		mib, err := p.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		sum += mib
	}
	return sum, nil
}

// writeDataset stores the run's dataset where the servers load it from.
func (e *env) writeDataset(w workload, in *inputs) (string, error) {
	path := filepath.Join(e.out, w.name+".ds")
	return path, dataset.SaveFile(path, in.dataset(w.name))
}

// boot starts the workload's servers and returns once every /healthz
// answers 200, with the time from the first process start to that
// moment — the run's set-up time. Every server runs arena-frozen with
// the planner on, budgets and admission off and one estimation worker,
// so each op does its full work and runs are comparable.
func (e *env) boot(ctx context.Context, w workload, dataFile string, client *http.Client) (*deployment, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()
	common := []string{
		"-file", dataFile, "-seed", strconv.FormatInt(w.dataSeed, 10),
		"-layout", "arena", "-engine", "auto", "-budget-slack", "0", "-workers", "1",
	}
	common = append(common, w.serveArgs...)
	d := &deployment{}
	began := time.Now()
	fail := func(err error) (*deployment, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	nodes := max(w.shards, 1)
	ports, err := freePorts(nodes + 1) // the last one is the router's
	if err != nil {
		return fail(err)
	}
	for i := 0; i < nodes; i++ {
		args := common
		if w.shards > 1 {
			args = append(append([]string(nil), common...), "-shards", strconv.Itoa(w.shards), "-shard-index", strconv.Itoa(i))
		}
		p, err := e.start(fmt.Sprintf("%s-node%d", w.name, i), "mcost-serve", ports[i], args...)
		if err != nil {
			return fail(err)
		}
		d.nodes = append(d.nodes, p)
	}
	d.front = d.nodes[0].url
	if w.shards > 1 {
		// A two-second timeout floor keeps the router's invented
		// ns-per-node constants from injecting retries into the run.
		args := []string{"-min-shard-timeout", "2s", "-seed", strconv.FormatInt(w.dataSeed, 10)}
		for _, n := range d.nodes {
			args = append(args, n.url)
		}
		p, err := e.start(w.name+"-router", "mcost-router", ports[nodes], args...)
		if err != nil {
			return fail(err)
		}
		d.router = p
		d.front = p.url
	}
	for _, p := range d.procs() {
		if err := p.waitReady(ctx, client); err != nil {
			return fail(err)
		}
	}
	return d, time.Since(began), nil
}
