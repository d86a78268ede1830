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

// Fig16 reproduces the fragmentation timeline: Ministral on H100 under
// a static trace (stationary length distribution) and a dynamic trace
// (mean length drifting over time), sampling the memory breakdown —
// weights, runtime reserve, used, wasted, unallocated — every few
// steps.
//
// Paper shapes: vLLM wastes 38.2% of KV memory on average (unfreed
// out-of-window KV, red band); Jenga wastes 0.04% (stranded small
// pages and partially filled tail pages). In the dynamic trace,
// Jenga's split between self-attention KV and window KV follows the
// workload (27.8%–54.5% of allocated KV is self-attention).
func Fig16(w io.Writer, opt Options) error {
	opt = opt.norm()
	n := opt.n(16)
	base := fig16Run()
	budget, err := gpu.KVBudget(base.spec, base.dev, 0)
	if err != nil {
		return err
	}
	weights := base.spec.WeightFootprint()
	reserve := base.dev.MemBytes - weights - budget

	load := func(dynamic bool) []workload.Request {
		g := workload.NewGen(opt.Seed)
		arts := g.Articles(8, 80000)
		reqs := g.ArxivQA(arts, n, 150)
		if dynamic {
			g.DriftLengths(reqs, 0.3, 1.0)
		}
		workload.AllAtOnce(reqs)
		return reqs
	}

	tbl := trace.NewTable("Fig. 16 memory breakdown (Ministral, H100; GB are averages over the run)",
		"system", "trace", "weights GB", "reserve GB", "used GB", "wasted GB", "unalloc GB",
		"waste % of KV", "self-KV share range", "used timeline", "wasted timeline")
	for _, dynamic := range []bool{false, true} {
		traceName := "static"
		if dynamic {
			traceName = "dynamic"
		}
		for i, r := range vs(base) {
			name, jenga := [...]string{"vLLM", "Jenga"}[i], r.kind == kindJenga
			res, err := r.serve(load(dynamic))
			if err != nil {
				return fmt.Errorf("fig16 %s/%s: %w", name, traceName, err)
			}
			var used, wasted, free float64
			var usedSeries, wastedSeries []float64
			selfLo, selfHi := 1.0, 0.0
			samples := 0
			for _, s := range res.MemTimeline {
				if s.Usage.Used == 0 && s.Usage.Wasted == 0 {
					continue // idle tail
				}
				samples++
				used += float64(s.Usage.Used + s.Usage.Cached)
				wasted += float64(s.Usage.Wasted)
				free += float64(s.Usage.Free)
				usedSeries = append(usedSeries, float64(s.Usage.Used+s.Usage.Cached))
				wastedSeries = append(wastedSeries, float64(s.Usage.Wasted))
				if jenga {
					fullU := s.Usage.PerGroup["full"].Used
					winU := s.Usage.PerGroup["window"].Used
					if tot := fullU + winU; tot > 0 {
						share := float64(fullU) / float64(tot)
						if share < selfLo {
							selfLo = share
						}
						if share > selfHi {
							selfHi = share
						}
					}
				}
			}
			if samples == 0 {
				samples = 1
			}
			used /= float64(samples)
			wasted /= float64(samples)
			free /= float64(samples)
			wastePct := 0.0
			if budget > 0 {
				wastePct = wasted / float64(budget) * 100
			}
			selfRange := "-"
			if jenga && selfHi > 0 {
				selfRange = fmt.Sprintf("%.1f%%..%.1f%%", selfLo*100, selfHi*100)
			}
			gb := func(x float64) string { return fmt.Sprintf("%.1f", x/(1<<30)) }
			tbl.AddRow(name, traceName,
				gb(float64(weights)), gb(float64(reserve)),
				gb(used), gb(wasted), gb(free),
				fmt.Sprintf("%.2f", wastePct), selfRange,
				trace.Sparkline(usedSeries, 24), trace.Sparkline(wastedSeries, 24))
		}
	}
	return emit(w, opt, tbl)
}

// fig16Run is Fig. 16's run before its manager is chosen: Ministral on
// H100 with prefix caching off, sampling the memory breakdown every
// four steps.
func fig16Run() run {
	return run{spec: model.Ministral8B(), dev: gpu.H100(),
		eng: engine.Config{SampleEvery: 4, MaxBatchTokens: 8192, MaxPrefills: 4}}
}
