package experiments

import (
	"fmt"
	"io"

	"jenga/internal/bench"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/metrics"
	"jenga/internal/model"
	"jenga/internal/trace"
	"jenga/internal/workload"
)

// fig13Entry describes one (model, dataset) row of Fig. 13.
type fig13Entry struct {
	label string
	spec  *model.Spec
	// load builds the workload (Table 1's dataset for the model).
	load func(g *workload.Gen, n int) []workload.Request
	// baseN is the paper-scale request count before Options.Scale.
	baseN int
	// maxSeqs sizes the baseline's static Mamba pool.
	maxSeqs int
	// vision marks VLM rows: the encoder's cross-attention KV, and the
	// larger runtime reserve (vlmReserve).
	vision bool
	// paper is the paper's reported speedup for reference.
	paper string
}

func mmluLoad(g *workload.Gen, n int) []workload.Request {
	reqs := g.MMLUPro(n, 1024)
	workload.AllAtOnce(reqs)
	return reqs
}

// arxivLoad builds one question per unique article (the Fig. 13
// long-context workload; cross-request sharing is Fig. 17's subject).
// Answers over long documents are long-form: 400 to 799 tokens.
func arxivLoad(meanLen int) func(g *workload.Gen, n int) []workload.Request {
	maxLen := meanLen + meanLen/4 // model context limit caps articles
	return func(g *workload.Gen, n int) []workload.Request {
		arts := g.Articles(n, meanLen)
		reqs := make([]workload.Request, 0, n)
		for i := 0; i < n; i++ {
			r := g.ArxivQA(arts[i:i+1], 1, 150)[0]
			if len(r.Prompt) > maxLen {
				r.Prompt = r.Prompt[:maxLen]
			}
			r.OutputLen = 400 + (i*37)%400
			reqs = append(reqs, r)
		}
		workload.AllAtOnce(reqs)
		return reqs
	}
}

func mmmuLoad(tokensPerImage int) func(g *workload.Gen, n int) []workload.Request {
	return func(g *workload.Gen, n int) []workload.Request {
		reqs := g.MMMUPro(n, tokensPerImage)
		workload.AllAtOnce(reqs)
		return reqs
	}
}

func fig13H100() []fig13Entry {
	return []fig13Entry{
		{label: "mllama", spec: model.Llama32Vision11B(), load: mmmuLoad(1601), baseN: 128, vision: true, paper: "1.71x"},
		{label: "Gemma-2", spec: model.Gemma2_27B(), load: arxivLoad(9000), baseN: 40, paper: "1.26x"},
		{label: "Ministral*", spec: model.Ministral8B(), load: arxivLoad(90000), baseN: 18, paper: "2.08x"},
		{label: "Jamba", spec: model.Jamba52B(), load: mmluLoad, baseN: 160, maxSeqs: 64, paper: "1.78x"},
		{label: "character", spec: model.CharacterAI70B(), load: mmluLoad, baseN: 160, paper: "4.92x"},
		{label: "PyramidKV", spec: model.PyramidKV70B(), load: mmluLoad, baseN: 160, paper: "1.50x"},
		{label: "Llama", spec: model.Llama31_70B(), load: mmluLoad, baseN: 96, paper: "1.03x"},
	}
}

func fig13L4() []fig13Entry {
	return []fig13Entry{
		{label: "mllama*", spec: quantized(model.Llama32Vision11B()), load: mmmuLoad(1601), baseN: 48, vision: true, paper: "1.54x"},
		{label: "Gemma-2", spec: model.Gemma2_9B(), load: arxivLoad(6000), baseN: 24, paper: "1.44x"},
		{label: "Ministral*", spec: quantized(model.Ministral8B()), load: arxivLoad(90000), baseN: 10, paper: "3.29x"},
		{label: "Jamba", spec: model.Jamba52B(), load: mmluLoad, baseN: 8, maxSeqs: 8, paper: "OOM"},
		{label: "character", spec: model.CharacterAI8B(), load: mmluLoad, baseN: 128, paper: "1.76x"},
		{label: "PyramidKV", spec: model.PyramidKV8B(), load: mmluLoad, baseN: 128, paper: "1.08x"},
		{label: "Llama", spec: model.Llama31_8B(), load: mmluLoad, baseN: 96, paper: "1.08x"},
	}
}

// Fig13 reproduces the end-to-end throughput comparison on both
// devices: vLLM-style PagedAttention vs Jenga, one row per model.
func Fig13(w io.Writer, opt Options) error {
	opt = opt.norm()
	for _, dev := range []gpu.Device{gpu.H100(), gpu.L4()} {
		entries := fig13H100()
		if dev.Name == "L4" {
			entries = fig13L4()
		}
		tbl := trace.NewTable(fmt.Sprintf("Fig. 13 end-to-end throughput (%s)", dev.Name),
			"model", "vLLM req/s", "Jenga req/s", "speedup", "paper", "vLLM done/fail", "Jenga done/fail")
		for _, e := range entries {
			row, err := fig13Row(e, dev, opt)
			if err != nil {
				return fmt.Errorf("fig13 %s/%s: %w", dev.Name, e.label, err)
			}
			tbl.AddRow(row...)
		}
		if err := emit(w, opt, tbl); err != nil {
			return err
		}
	}
	return nil
}

// runs are the row's paged-baseline and Jenga replicas. Prefix caching
// is off on both: the figure compares memory layouts, and reuse is
// Fig. 17's subject.
func (e fig13Entry) runs(dev gpu.Device) []bench.Replica {
	// Real prefill token budgets are large (vLLM defaults to the
	// model's context length); several prompts prefill in one step.
	r := bench.Replica{Spec: e.spec, Device: dev, MaxSeqs: e.maxSeqs, Engine: engine.Config{MaxBatchTokens: 8192, MaxPrefills: 4}}
	if e.vision {
		// mllama's encoder feeds cross-attention KV, computed once per
		// request by every engine.
		r.Reserve, r.Engine.Vision = vlmReserve, engine.VisionReuseKV
	}
	return vs(r)
}

func fig13Row(e fig13Entry, dev gpu.Device, opt Options) ([]any, error) {
	// OOM detection first (Jamba on L4).
	if _, err := gpu.KVBudget(e.spec, dev, 0); err != nil {
		return []any{e.label, "OOM", "OOM", "-", e.paper, "-", "-"}, nil
	}
	n := opt.n(e.baseN)
	res, err := serveEach(func() []workload.Request { return e.load(workload.NewGen(opt.Seed), n) }, e.runs(dev))
	if err != nil {
		return nil, err
	}
	vres, jres := res[0], res[1]
	return []any{
		e.label,
		fmt.Sprintf("%.3f", vres.ReqPerSec),
		fmt.Sprintf("%.3f", jres.ReqPerSec),
		fmt.Sprintf("%.2fx", metrics.Speedup(jres.ReqPerSec, vres.ReqPerSec)),
		e.paper,
		fmt.Sprintf("%d/%d", vres.Finished, vres.Failed),
		fmt.Sprintf("%d/%d", jres.Finished, jres.Failed),
	}, nil
}
