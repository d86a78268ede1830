// Package experiments contains one runner per table and figure of the
// paper's evaluation (§7), shared by cmd/jengabench and the root
// benchmark suite. Each runner builds the workload, runs every
// compared memory manager under the identical engine, and prints the
// same rows/series the paper reports.
//
// Absolute numbers come from the simulated cost model, so they differ
// from the paper's H100/L4 measurements; the shapes — who wins, by
// roughly what factor, where crossovers fall — are the reproduction
// target (see EXPERIMENTS.md).
package experiments

import (
	"io"
	"sort"

	"jenga/internal/baseline"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/trace"
	"jenga/internal/workload"
)

// Options tunes experiment scale and reproducibility.
type Options struct {
	// Scale multiplies request counts (1.0 = paper-like scale; smaller
	// for quick runs). Zero means 1.0.
	Scale float64
	// Seed feeds every workload generator. Zero means 42.
	Seed int64
	// CSVDir, when set, additionally writes each table as a CSV file
	// (named from the table title) for replotting.
	CSVDir string
}

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// tokensPerPage is the page granularity of every manager the
// experiments build.
const tokensPerPage = 16

// vlmReserve is the runtime reserve fraction for VLM serving: the
// vision encoder's activation workspace for thousands of image tokens
// is far larger than a text model's (§6.2 discusses the peak-memory
// pressure of vision inputs).
const vlmReserve = 0.35

func (o Options) n(base int) int {
	n := int(float64(base) * o.Scale)
	if n < 4 {
		n = 4
	}
	return n
}

// Runner executes one experiment, writing its tables to w.
type Runner func(w io.Writer, opt Options) error

// Registry maps experiment IDs to runners.
var Registry = map[string]Runner{
	"waste":             WasteAnalysis,
	"table1":            Table1,
	"fig13":             Fig13,
	"fig14":             Fig14,
	"fig15":             Fig15,
	"fig16":             Fig16,
	"fig17":             Fig17,
	"fig18":             Fig18,
	"fig19":             Fig19,
	"ablation-page":     AblationPageSize,
	"ablation-reqaware": AblationRequestAware,
	"ablation-ckpt":     AblationCheckpoint,
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// managerKind is the memory manager a run serves under.
type managerKind int

const (
	kindJenga      managerKind = iota // Jenga's two-level LCM allocator
	kindPaged                         // the vLLM-style PagedAttention baseline
	kindVLLMMax                       // §7.4: one page size, set by the target
	kindVLLMManual                    // §7.4: SmartSpec's static target/draft split
)

// run is one engine simulation of a paper experiment. The paper runs
// every compared memory manager under one identical engine (§7), so a
// driver is a list of runs, and this is the one place that builds their
// managers and engines.
type run struct {
	spec *model.Spec
	dev  gpu.Device
	kind managerKind
	// cache turns the manager's prefix caching on.
	cache bool
	// reserve overrides the runtime reserve fraction (0 = gpu default).
	reserve float64
	// maxSeqs sizes the paged baseline's Mamba pool (0 = its default).
	maxSeqs int
	// target is a speculative pair's target (spec is the pair), which
	// the vLLM-max and vLLM-manual baselines page apart from the draft.
	target *model.Spec
	// eng holds only the engine knobs the figure sets; serve fills in
	// the model, device and manager.
	eng engine.Config
}

// manager builds the run's memory manager on the model's KV budget.
func (r run) manager() (core.Manager, error) {
	budget, err := gpu.KVBudget(r.spec, r.dev, r.reserve)
	if err != nil {
		return nil, err
	}
	switch r.kind {
	case kindPaged:
		return baseline.NewPaged(baseline.Config{
			Spec: r.spec, CapacityBytes: budget, TokensPerPage: tokensPerPage,
			EnablePrefixCache: r.cache, MaxSeqs: r.maxSeqs,
		})
	case kindVLLMMax:
		return baseline.NewVLLMMax(r.target, r.spec.Draft, budget, tokensPerPage, r.cache)
	case kindVLLMManual:
		return baseline.NewVLLMManual(r.target, r.spec.Draft, budget, tokensPerPage, r.cache)
	}
	return core.New(core.Config{
		Spec: r.spec, CapacityBytes: budget, TokensPerPage: tokensPerPage,
		EnablePrefixCache: r.cache, RequestAware: true,
	})
}

// serve runs reqs through one engine over a fresh manager.
func (r run) serve(reqs []workload.Request) (*engine.Result, error) {
	mgr, err := r.manager()
	if err != nil {
		return nil, err
	}
	r.eng.Spec, r.eng.Device, r.eng.Manager = r.spec, r.dev, mgr
	e, err := engine.New(r.eng)
	if err != nil {
		return nil, err
	}
	return e.Run(reqs)
}

// vs is the comparison most figures make: the run under the paged
// baseline, then the same run under Jenga.
func vs(r run) []run {
	vllm, jenga := r, r
	vllm.kind, jenga.kind = kindPaged, kindJenga
	return []run{vllm, jenga}
}

// serveEach serves a fresh load() under each run, in order.
func serveEach(load func() []workload.Request, runs []run) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(runs))
	for i, r := range runs {
		res, err := r.serve(load())
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// quantized returns a copy of the spec with fp8 weights (the Table 1
// "*" variants).
func quantized(spec *model.Spec) *model.Spec {
	cp := *spec
	cp.Name += "*"
	cp.WeightBytes = 1
	return &cp
}

// emit renders a table to w and, when Options.CSVDir is set, writes it
// as CSV alongside.
func emit(w io.Writer, opt Options, tbl *trace.Table) error {
	if opt.CSVDir != "" {
		if err := tbl.SaveCSV(opt.CSVDir); err != nil {
			return err
		}
	}
	return tbl.Render(w)
}
