package experiments

import (
	"fmt"
	"io"

	"jenga/internal/core"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/trace"
)

// WasteAnalysis reproduces the §3.2 fragmentation analysis: for each
// heterogeneous model, the fraction of PagedAttention-allocated KV
// bytes that store nothing the model will read. Both an analytic value
// (the paper's formula) and a measured value (running one request
// through the baseline manager) are reported.
//
// Paper numbers: mllama 79.6% (MMMU-pro), Gemma-2 up to 25%,
// Ministral up to 56.25%.
func WasteAnalysis(w io.Writer, opt Options) error {
	opt = opt.norm()
	tbl := trace.NewTable("§3.2 PagedAttention waste on heterogeneous models",
		"model", "workload", "analytic waste %", "measured waste %", "paper %")

	cases := []struct {
		spec  *model.Spec
		label string
		text  int
		image int
		paper string
	}{
		// MMMU-pro averages: 6193 image + 43 text tokens (§3.2).
		{model.Llama32Vision11B(), "MMMU-pro avg (43 txt + 6193 img)", 43, 6193, "79.6"},
		// Gemma-2: waste = ½·(1 − 4096/L); the paper's "up to 25%" is
		// L = 8192.
		{model.Gemma2_27B(), "8192-token context", 8192, 0, "25.0"},
		// Ministral: ¾ sliding layers, window 32768; "up to 56.25%" at
		// the 131072-token context limit.
		{model.Ministral8B(), "131072-token context", 131072, 0, "56.25"},
		// Jamba: static Mamba partition waste depends on occupancy; the
		// analytic column reports the per-request page overhead only.
		{model.Jamba52B(), "3072-token context", 3072, 0, "(n/a)"},
	}

	for _, c := range cases {
		analytic := analyticWaste(c.spec, c.text, c.image)
		measured, err := measuredWaste(c.spec, c.text, c.image)
		if err != nil {
			return fmt.Errorf("waste %s: %w", c.spec.Name, err)
		}
		tbl.AddRow(c.spec.Name, c.label,
			fmt.Sprintf("%.1f", analytic*100),
			fmt.Sprintf("%.1f", measured*100),
			c.paper)
	}
	return emit(w, opt, tbl)
}

// analyticWaste computes 1 − needed/allocated for one request under
// flat PagedAttention allocation (§3.2's formula generalized to every
// layer kind).
func analyticWaste(spec *model.Spec, text, image int) float64 {
	var allocated, needed float64
	perTokFlat := 0
	for i := range spec.Groups {
		g := &spec.Groups[i]
		if g.Kind == model.Mamba || g.Kind == model.VisionEmbedding {
			continue
		}
		perTokFlat += g.BytesPerToken * g.Physical()
	}
	allocated = float64((text + image) * perTokFlat)
	for i := range spec.Groups {
		g := &spec.Groups[i]
		proj := 0
		if g.StoresToken(false) {
			proj += text
		}
		if g.StoresToken(true) {
			proj += image
		}
		switch g.Kind {
		case model.Mamba:
			needed += float64(g.StateBytes * g.Layers)
			allocated += float64(g.StateBytes * g.Layers)
		case model.SlidingWindow, model.PyramidWindow:
			if proj > g.Window {
				proj = g.Window
			}
			needed += float64(proj * g.BytesPerToken * g.Layers)
		case model.VisionEmbedding:
			// Not stored by PagedAttention.
		default:
			needed += float64(proj * g.BytesPerToken * g.Layers)
		}
	}
	if allocated == 0 {
		return 0
	}
	return 1 - needed/allocated
}

// measuredWaste runs one request through the baseline manager and
// reads Usage().
func measuredWaste(spec *model.Spec, text, image int) (float64, error) {
	mgr, err := run{spec: spec, dev: bigDevice(spec), kind: kindPaged, maxSeqs: 1}.manager()
	if err != nil {
		return 0, err
	}
	seq := &core.Sequence{ID: 1}
	for i := 0; i < image; i++ {
		seq.Tokens = append(seq.Tokens, core.ImageToken(int32(i%50000+1)))
	}
	for i := 0; i < text; i++ {
		seq.Tokens = append(seq.Tokens, core.Token{ID: int32(i%50000 + 1)})
	}
	n := len(seq.Tokens)
	if err := mgr.Reserve(seq, n, 1); err != nil {
		return 0, err
	}
	mgr.Commit(seq, n, 1)
	u := mgr.Usage()
	alloc := u.Used + u.Wasted
	if alloc == 0 {
		return 0, nil
	}
	return float64(u.Wasted) / float64(alloc), nil
}

// bigDevice returns a device with ample memory for single-request
// measurements of any model (weights plus 400 GB of KV headroom).
func bigDevice(spec *model.Spec) gpu.Device {
	d := gpu.H100()
	d.MemBytes = spec.WeightFootprint() + (400 << 30)
	return d
}
