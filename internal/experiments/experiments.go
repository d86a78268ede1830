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

// newJenga builds a Jenga manager sized for the model on the device.
// reserve overrides the runtime reserve fraction (0 = default); VLM
// experiments reserve more for vision-encoder activation workspace.
func newJenga(spec *model.Spec, dev gpu.Device, cache bool, reserve float64) (core.Manager, error) {
	budget, err := gpu.KVBudget(spec, dev, reserve)
	if err != nil {
		return nil, err
	}
	return core.New(core.Config{
		Spec: spec, CapacityBytes: budget, TokensPerPage: tokensPerPage,
		EnablePrefixCache: cache, RequestAware: true,
	})
}

// newPaged builds the vLLM-style baseline sized for the model.
func newPaged(spec *model.Spec, dev gpu.Device, cache bool, maxSeqs int, reserve float64) (core.Manager, error) {
	budget, err := gpu.KVBudget(spec, dev, reserve)
	if err != nil {
		return nil, err
	}
	return baseline.NewPaged(baseline.Config{
		Spec: spec, CapacityBytes: budget, TokensPerPage: tokensPerPage,
		EnablePrefixCache: cache, MaxSeqs: maxSeqs,
	})
}

// serve runs one engine simulation.
func serve(spec *model.Spec, dev gpu.Device, mgr core.Manager, reqs []workload.Request, mod func(*engine.Config)) (*engine.Result, error) {
	cfg := engine.Config{
		Spec: spec, Device: dev, Manager: mgr,
		MaxBatchTokens: 2048, MaxRunning: 256,
	}
	if mod != nil {
		mod(&cfg)
	}
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(reqs)
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
