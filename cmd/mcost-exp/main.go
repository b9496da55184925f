// Command mcost-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	mcost-exp -exp all                         # every experiment, default scale
//	mcost-exp -exp fig1 -n 10000 -queries 1000 # Figure 1 at the paper's scale
//	mcost-exp -exp fig5 -n 100000              # node-size tuning, larger dataset
//	mcost-exp -exp residuals -metrics-out r.json -trace  # per-level residual JSON
//	mcost-exp -list                            # list experiment names
//
// -list prints every experiment name; DESIGN.md's experiment index maps
// each to the table or figure it regenerates.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"mcost/internal/cliutil"
	"mcost/internal/experiments"
)

func main() {
	var names, jsonNames []string
	for _, e := range experiments.Experiments() {
		names = append(names, e.Name)
		if e.JSON {
			jsonNames = append(jsonNames, e.Name)
		}
	}
	fs := flag.CommandLine
	var (
		tf  = cliutil.RegisterTree(fs, 42, false)
		stf = cliutil.RegisterStorage(fs)
		bf  = cliutil.RegisterBudget(fs, false)
		rf  = cliutil.RegisterRecal(fs, false)

		exp     = flag.String("exp", "all", "experiment name or 'all'")
		n       = flag.Int("n", 10_000, "dataset size")
		queries = flag.Int("queries", 1000, "queries averaged per measurement (paper: 1000)")
		list    = flag.Bool("list", false, "list experiment names and exit")
		mOut    = flag.String("metrics-out", "", "write the experiment's machine-readable result as JSON to FILE instead of a text table (supported: "+strings.Join(jsonNames, ", ")+")")
		trace   = flag.Bool("trace", false, "with -metrics-out, embed the merged raw query trace in the JSON (residuals experiment)")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	cfg := experiments.Config{
		N:             *n,
		Queries:       *queries,
		PageSize:      tf.PageSize,
		Seed:          tf.Seed,
		Workers:       tf.Workers,
		IncludeTrace:  *trace,
		Paged:         stf.Paged,
		CachePages:    stf.CachePages,
		RetryAttempts: stf.Retry,
		BudgetSlack:   bf.Slack,
		RecalWindow:   rf.Window,
		RecalBand:     rf.Band,
	}
	if faults := stf.FaultConfig(); faults.Any() {
		cfg.Faults = &faults
		cfg.Paged = true
	}
	e, ok := experiments.Lookup(*exp)
	if !ok && *exp != "all" {
		fmt.Fprintf(os.Stderr, "mcost-exp: unknown experiment %q; available: %s\n",
			*exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	var err error
	switch {
	case *mOut != "":
		err = writeMetrics(*exp, cfg, *mOut)
	case ok:
		err = e.Render(cfg, os.Stdout)
	default:
		err = experiments.RunAll(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcost-exp:", err)
		os.Exit(1)
	}
}

// writeMetrics writes the experiment's JSON result to path. The file is
// written only once the result is complete, so a failed run leaves an
// existing file untouched.
func writeMetrics(name string, cfg experiments.Config, path string) error {
	var buf bytes.Buffer
	if err := experiments.WriteJSON(name, cfg, &buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Printf("wrote %s result to %s\n", name, path)
	return nil
}
