package experiments

import (
	"fmt"
	"io"

	"mcost/internal/obs"
)

// Experiment is one entry of the registry behind `mcost-exp -exp`: a
// named runner, how its result renders as text tables and, for the few
// with a machine-readable form, what WriteJSON marshals.
type Experiment struct {
	Name string
	// JSON reports whether WriteJSON (`mcost-exp -metrics-out`) accepts
	// the experiment.
	JSON bool
	run  func(cfg Config) (tables []*Table, data any, err error)
}

// registry holds every experiment once, in name order: the order of
// RunAll and `mcost-exp -list`. Fig1Result carries a non-serializable
// Radius closure, so fig1 marshals its Rows only.
var registry = []Experiment{
	entry("ablation-bias", RunAblationBias, one, nil),
	entry("ablation-bins", RunAblationBins, one, nil),
	entry("ablation-build", RunAblationBuild, one, nil),
	entry("ablation-pruning", RunAblationPruning, one, nil),
	entry("ablation-sampling", RunAblationSampling, one, nil),
	entry("cache", RunCache, one, nil),
	entry("complex", RunComplex, one, nil),
	entry("concentration", RunConcentration, one, whole),
	entry("fig1", RunFig1, (*Fig1Result).Tables, func(r *Fig1Result) any { return r.Rows }),
	entry("fig2", RunFig2, (*Fig2Result).Tables, nil),
	entry("fig3", RunFig3, (*Fig3Result).Tables, whole),
	entry("fig4", RunFig4, (*Fig4Result).Tables, nil),
	entry("fig5", RunFig5, (*Fig5Result).Tables, nil),
	entry("fractal", RunFractal, one, nil),
	entry("hmcm", RunHMCM, one, nil),
	entry("hv", RunHV, one, nil),
	entry("hverr", RunHVErr, one, nil),
	entry("join", RunJoin, one, nil),
	entry("multiview", RunMultiView, one, nil),
	entry("nnk", RunNNK, one, nil),
	entry("recal", RunRecal, one, whole),
	entry("residuals", RunResiduals, one, whole),
	entry("statsfree", RunStatsFree, one, nil),
	entry("table1", RunTable1, one, func(r *Table1Result) any { return r.Rows }),
	entry("vptree", RunVP, one, nil),
}

// entry registers run under name: tables renders its result as text,
// and data, nil for a text-only experiment, picks what WriteJSON
// marshals. The marshalled value must encode deterministically for a
// fixed Config (Workers excluded); encoding/json sorts map keys and
// formats floats canonically, so equal values give equal bytes.
func entry[R any](name string, run func(Config) (R, error), tables func(R) []*Table, data func(R) any) Experiment {
	return Experiment{Name: name, JSON: data != nil, run: func(cfg Config) ([]*Table, any, error) {
		r, err := run(cfg)
		if err != nil {
			return nil, nil, err
		}
		var d any
		if data != nil {
			d = data(r)
		}
		return tables(r), d, nil
	}}
}

// one renders a single-table result.
func one[R interface{ Table() *Table }](r R) []*Table { return []*Table{r.Table()} }

// whole marshals the full result.
func whole[R any](r R) any { return r }

// Experiments returns the registry in name order.
func Experiments() []Experiment { return append([]Experiment(nil), registry...) }

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render runs the experiment and writes its tables as aligned text.
func (e Experiment) Render(cfg Config, w io.Writer) error {
	tables, _, err := e.run(cfg)
	if err != nil {
		return err
	}
	for i, t := range tables {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RunAll renders every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range registry {
		if _, err := fmt.Fprintf(w, "\n=== %s ===\n\n", e.Name); err != nil {
			return err
		}
		if err := e.Render(cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}

// envelope is the top-level JSON document written by WriteJSON. Workers
// is deliberately omitted: results are identical at any worker count,
// and recording it would break that byte-level guarantee.
type envelope struct {
	Experiment string `json:"experiment"`
	N          int    `json:"n"`
	Queries    int    `json:"queries"`
	PageSize   int    `json:"page_size"`
	Seed       int64  `json:"seed"`
	Data       any    `json:"data"`
}

// WriteJSON runs the named experiment and writes its machine-readable
// result, wrapped in a reproducibility envelope, as indented JSON. It
// fails before running anything when the experiment has no JSON form.
func WriteJSON(name string, cfg Config, w io.Writer) error {
	e, ok := Lookup(name)
	if !ok || !e.JSON {
		var names []string
		for _, e := range registry {
			if e.JSON {
				names = append(names, e.Name)
			}
		}
		return fmt.Errorf("experiment %q has no JSON output (available: %v)", name, names)
	}
	_, data, err := e.run(cfg)
	if err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	// The one shared indented encoder keeps experiment output
	// byte-compatible with every other machine-readable emitter (obs
	// envelopes, /v1/stats).
	return obs.WriteIndentedJSON(w, envelope{
		Experiment: name,
		N:          cfg.N,
		Queries:    cfg.Queries,
		PageSize:   cfg.PageSize,
		Seed:       cfg.Seed,
		Data:       data,
	})
}
