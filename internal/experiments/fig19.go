package experiments

import (
	"fmt"
	"io"

	"jenga/internal/baseline"
	"jenga/internal/core"
	"jenga/internal/gpu"
	"jenga/internal/metrics"
	"jenga/internal/model"
	"jenga/internal/trace"
	"jenga/internal/workload"
)

// Fig19 reproduces the speculative-decoding comparison: each target
// model runs with its draft under three memory strategies — vLLM-max
// (one uniform page size, set by the target), vLLM-manual (SmartSpec's
// static split) and Jenga (one shared heap, per-model page sizes).
//
// Paper shapes: on heterogeneous targets Jenga wins (Gemma-2 1.12×,
// Ministral 1.07×, character 3.30× over the best baseline); on plain
// Llama, Jenga matches vLLM-manual (0.97×), showing the automatic
// manager reaches the hand-tuned optimum for self-attention models.
func Fig19(w io.Writer, opt Options) error {
	opt = opt.norm()
	dev := gpu.H100()

	type entry struct {
		label         string
		target, draft *model.Spec
		load          func(g *workload.Gen, n int) []workload.Request
		baseN         int
		paper         string
	}
	entries := []entry{
		{label: "Gemma2", target: model.Gemma2_27B(), draft: model.Gemma2_2B(),
			load: mmluLoad(64), baseN: 64, paper: "1.12x"},
		{label: "Ministral*", target: model.Ministral8B(), draft: model.MinistralDraft1B(),
			load: arxivLoad(60000), baseN: 12, paper: "1.07x"},
		{label: "character", target: model.CharacterAI70B(), draft: model.Llama32_1B(),
			load: mmluLoad(64), baseN: 64, paper: "3.30x"},
		{label: "Llama", target: model.Llama31_70B(), draft: model.Llama32_1B(),
			load: mmluLoad(64), baseN: 48, paper: "0.97x"},
	}

	tbl := trace.NewTable("Fig. 19 speculative decoding throughput (H100)",
		"model", "vLLM-max req/s", "vLLM-manual req/s", "Jenga req/s",
		"Jenga vs best baseline", "paper (vs manual)")

	for _, e := range entries {
		// Both models' weights occupy the device; the rest is KV.
		pair := model.WithDraft(e.target, e.draft)
		budget, err := gpu.KVBudget(pair, dev, 0)
		if err != nil {
			tbl.AddRow(e.label, "OOM", "OOM", "OOM", "-", e.paper)
			continue
		}
		n := opt.n(e.baseN)
		managers := [...]struct {
			name  string
			build func() (core.Manager, error)
		}{
			{"vmax", func() (core.Manager, error) {
				return baseline.NewVLLMMax(e.target, e.draft, budget, opt.TokensPerPage, false)
			}},
			{"manual", func() (core.Manager, error) {
				return baseline.NewVLLMManual(e.target, e.draft, budget, opt.TokensPerPage, false)
			}},
			// Jenga needs no strategy: the pair is a model like any other.
			{"jenga", func() (core.Manager, error) {
				return core.New(core.Config{
					Spec: pair, CapacityBytes: budget, TokensPerPage: opt.TokensPerPage, RequestAware: true,
				})
			}},
		}
		var rps [len(managers)]float64
		for i, m := range managers {
			mgr, err := m.build()
			if err != nil {
				return fmt.Errorf("fig19 %s %s: %w", e.label, m.name, err)
			}
			res, err := serve(pair, dev, mgr, e.load(workload.NewGen(opt.Seed), n), nil)
			if err != nil {
				return fmt.Errorf("fig19 %s %s: %w", e.label, m.name, err)
			}
			if res.Finished != n {
				return fmt.Errorf("fig19 %s %s: %d of %d requests finished", e.label, m.name, res.Finished, n)
			}
			rps[i] = res.ReqPerSec
		}
		vmax, manual, shared := rps[0], rps[1], rps[2]
		tbl.AddRow(e.label,
			fmt.Sprintf("%.3f", vmax),
			fmt.Sprintf("%.3f", manual),
			fmt.Sprintf("%.3f", shared),
			fmt.Sprintf("%.2fx", metrics.Speedup(shared, max(vmax, manual))),
			e.paper)
	}
	return emit(w, opt, tbl)
}
