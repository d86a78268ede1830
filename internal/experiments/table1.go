package experiments

import (
	"fmt"
	"io"

	"jenga/internal/bench"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/trace"
)

// Table1 reproduces the paper's Table 1: the evaluated models, their
// datasets, and per-device sizes (★ marks fp8 quantization), extended
// with the KV-group structure each model declares — the information
// Jenga actually consumes.
func Table1(w io.Writer, opt Options) error {
	opt = opt.norm()
	type row struct {
		spec    *model.Spec
		dataset string
		h100    string
		l4      string
	}
	rows := []row{
		{model.Llama32Vision11B(), "MMMU-pro", "11B", "11B*"},
		{model.Gemma2_27B(), "arXiv-QA", "27B", "9B"},
		{model.Ministral8B(), "arXiv-QA", "8B", "8B*"},
		{model.Jamba52B(), "MMLU-pro", "52B*", "OOM"},
		{model.CharacterAI70B(), "MMLU-pro", "70B*", "8B"},
		{model.PyramidKV70B(), "MMLU-pro", "70B*", "8B"},
		{model.Llama31_70B(), "MMLU-pro", "70B*", "8B"},
	}
	tbl := trace.NewTable("Table 1: models and datasets (★ = FP8)",
		"model", "dataset", "H100", "L4", "KV groups", "LCM page MiB", "max ratio")
	for _, r := range rows {
		geo, err := r.spec.Geometry(bench.TokensPerPage)
		if err != nil {
			return err
		}
		groups := ""
		for i := range r.spec.Groups {
			g := &r.spec.Groups[i]
			if i > 0 {
				groups += " + "
			}
			groups += fmt.Sprintf("%d×%v", g.Layers, g.Kind)
		}
		tbl.AddRow(r.spec.Name, r.dataset, r.h100, r.l4, groups,
			fmt.Sprintf("%.2f", float64(geo.LargePageBytes)/(1<<20)),
			geo.MaxRatio())
	}
	if err := emit(w, opt, tbl); err != nil {
		return err
	}

	// The Fig. 18 VLMs and Fig. 19 drafts complete the zoo.
	extra := trace.NewTable("Additional models (Figs. 18 and 19)",
		"model", "role", "KV groups", "vision tokens/image")
	for _, s := range []*model.Spec{
		model.LLaVAOneVision7B(), model.InternVL2_8B(),
		model.Phi3Vision4B(), model.Paligemma2_10B(),
	} {
		groups := ""
		for i := range s.Groups {
			if i > 0 {
				groups += " + "
			}
			groups += fmt.Sprintf("%d×%v", s.Groups[i].Layers, s.Groups[i].Kind)
		}
		extra.AddRow(s.Name, "Fig. 18 VLM", groups, s.Vision.TokensPerImage)
	}
	for _, s := range []*model.Spec{model.Gemma2_2B(), model.Llama32_1B(), model.MinistralDraft1B()} {
		extra.AddRow(s.Name, "Fig. 19 draft", fmt.Sprintf("%d layers", s.TotalLayers()), "-")
	}
	if err := emit(w, opt, extra); err != nil {
		return err
	}

	// Device platforms (§7.1).
	dev := trace.NewTable("Evaluation platforms (§7.1)",
		"device", "memory GiB", "eff. TFLOP/s", "eff. TB/s")
	for _, d := range []gpu.Device{gpu.H100(), gpu.L4()} {
		dev.AddRow(d.Name, d.MemBytes>>30,
			fmt.Sprintf("%.0f", d.FLOPS/1e12), fmt.Sprintf("%.2f", d.MemBW/1e12))
	}
	return emit(w, opt, dev)
}
