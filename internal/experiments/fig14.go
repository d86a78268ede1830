package experiments

import (
	"fmt"
	"io"

	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/trace"
	"jenga/internal/workload"
)

// Fig14 reproduces the latency-vs-rate study: the Llama Vision model
// (mllama) on H100 under Poisson arrivals at increasing request rates,
// reporting end-to-end latency (E2EL), time to first token (TTFT) and
// time per output token (TPOT) for vLLM and Jenga.
//
// Paper shapes: near-identical latency at low rates; at high rates
// Jenga cuts E2EL (up to 2.24×) and TTFT (up to 29×) via larger
// batches, while its TPOT is slightly higher because each step batches
// more requests.
func Fig14(w io.Writer, opt Options) error {
	opt = opt.norm()
	spec := model.Llama32Vision11B()
	dev := gpu.H100()
	n := opt.n(384)
	// The paper sweeps 0.5–4 req/s on its testbed; our simulated engine
	// saturates at a higher absolute rate, so the sweep extends until
	// the same divergence appears: vLLM's decode capacity saturates
	// first (queue explosion), Jenga's larger batches absorb the rate.
	rates := []float64{1, 2, 3, 4, 6}

	tbl := trace.NewTable("Fig. 14 latency vs request rate (mllama, H100; times in s)",
		"rate req/s", "vLLM E2EL", "Jenga E2EL", "vLLM TTFT", "Jenga TTFT", "vLLM TPOT", "Jenga TPOT")

	runs := vs(run{spec: spec, dev: dev, cache: true, reserve: vlmReserve, eng: engine.Config{
		Vision: engine.VisionReuseKV,
		// Latency serving uses small chunks so prefill work cannot
		// stall in-flight decodes (SARATHI-style TPOT protection).
		MaxBatchTokens: 4096, MaxPrefills: 2,
	}})
	for _, rate := range rates {
		res, err := serveEach(func() []workload.Request {
			g := workload.NewGen(opt.Seed)
			reqs := g.MMMUPro(n, 1601)
			for i := range reqs {
				// Fig. 14 measures latency under load with the short
				// multiple-choice answers of MMMU-pro.
				reqs[i].OutputLen = 64 + (i*17)%96
			}
			g.PoissonArrivals(reqs, rate)
			return reqs
		}, runs)
		if err != nil {
			return fmt.Errorf("fig14 rate %.1f: %w", rate, err)
		}
		vres, jres := res[0], res[1]
		tbl.AddRow(rate,
			fmt.Sprintf("%.2f", vres.MeanE2E.Seconds()),
			fmt.Sprintf("%.2f", jres.MeanE2E.Seconds()),
			fmt.Sprintf("%.2f", vres.MeanTTFT.Seconds()),
			fmt.Sprintf("%.2f", jres.MeanTTFT.Seconds()),
			fmt.Sprintf("%.4f", vres.MeanTPOT.Seconds()),
			fmt.Sprintf("%.4f", jres.MeanTPOT.Seconds()),
		)
	}
	return emit(w, opt, tbl)
}
