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

// Fig18 reproduces the vision-embedding-cache study: four VLMs serving
// MMMU-pro with chunked prefill (chunk 1024). Without the cache (vLLM)
// the vision encoder re-runs for every chunk that needs image
// embeddings; with Jenga's cache it runs once per request and the
// embeddings are freed as chunks consume them (§6.2).
//
// Paper shapes: 1.88× mean throughput (3.53× LLaVA, 1.79× InternVL,
// 1.34× Phi3V, 1.48× Paligemma2) and 20–78% lower E2E latency.
func Fig18(w io.Writer, opt Options) error {
	opt = opt.norm()
	dev := gpu.H100()
	n := opt.n(32)

	models := []*model.Spec{
		model.LLaVAOneVision7B(),
		model.InternVL2_8B(),
		model.Phi3Vision4B(),
		model.Paligemma2_10B(),
	}
	paper := map[string]string{
		"LLaVA-OneVision-7B": "3.53x", "InternVL2-8B": "1.79x",
		"Phi-3-Vision-4B": "1.34x", "Paligemma2-10B": "1.48x",
	}

	tbl := trace.NewTable("Fig. 18 VLM chunked prefill with vision embedding cache (H100, chunk 1024)",
		"model", "vLLM req/s", "Jenga req/s", "speedup", "paper",
		"vLLM E2E s", "Jenga E2E s", "vLLM enc runs", "Jenga enc runs")

	for _, spec := range models {
		load := func() []workload.Request {
			g := workload.NewGen(opt.Seed)
			reqs := g.MMMUPro(n, spec.Vision.TokensPerImage)
			workload.AllAtOnce(reqs)
			return reqs
		}
		runs := vs(bench.Replica{Spec: spec, Device: dev, Reserve: vlmReserve, Engine: engine.Config{MaxBatchTokens: 1024}})
		runs[0].Engine.Vision = engine.VisionNone
		runs[1].Engine.Vision = engine.VisionFreeOnDemand
		res, err := serveEach(load, runs)
		if err != nil {
			return fmt.Errorf("fig18 %s: %w", spec.Name, err)
		}
		vres, jres := res[0], res[1]
		tbl.AddRow(spec.Name,
			fmt.Sprintf("%.3f", vres.ReqPerSec),
			fmt.Sprintf("%.3f", jres.ReqPerSec),
			fmt.Sprintf("%.2fx", metrics.Speedup(jres.ReqPerSec, vres.ReqPerSec)),
			paper[spec.Name],
			fmt.Sprintf("%.2f", vres.MeanE2E.Seconds()),
			fmt.Sprintf("%.2f", jres.MeanE2E.Seconds()),
			vres.EncoderRuns, jres.EncoderRuns)
	}
	return emit(w, opt, tbl)
}
