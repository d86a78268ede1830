// Package experiments contains one runner per table and figure of the
// paper's evaluation (§7), shared by cmd/jengabench and the root
// benchmark suite. Each runner builds the workload, serves it on one
// bench.Replica per compared memory manager — the identical engine
// under each — and prints the same rows/series the paper reports.
//
// Absolute numbers come from the simulated cost model, so they differ
// from the paper's H100/L4 measurements; the shapes — who wins, by
// roughly what factor, where crossovers fall — are the reproduction
// target (see EXPERIMENTS.md).
package experiments

import (
	"io"
	"sort"

	"jenga/internal/bench"
	"jenga/internal/engine"
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

// vs is the comparison most figures make: the replica under the paged
// baseline, then the same replica under Jenga.
func vs(r bench.Replica) []bench.Replica {
	vllm, jenga := r, r
	vllm.Manager, jenga.Manager = bench.Paged, bench.Jenga
	return []bench.Replica{vllm, jenga}
}

// serveEach serves a fresh load() on each replica, in order.
func serveEach(load func() []workload.Request, replicas []bench.Replica) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(replicas))
	for i, r := range replicas {
		res, err := r.Serve(load())
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
