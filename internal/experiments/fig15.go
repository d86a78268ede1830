package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/trace"
	"jenga/internal/workload"
)

// Fig15 reproduces the decode-batch-size timeline: 20 long-document QA
// requests (inputs 55–110k tokens, outputs 50–100) hit the Ministral
// model at once; the plot tracks how many sequences decode per
// scheduler step under four systems.
//
// Paper shapes: Jenga's average batch is 5.39 vs ≈2.6 for vLLM, SGLang
// and TGI (1.95×), and Jenga finishes within ~300 steps vs ~600. TGI
// ends earlier only because it lacks --ignore-eos and generates fewer
// tokens — emulated here by truncating its outputs.
func Fig15(w io.Writer, opt Options) error {
	opt = opt.norm()
	spec := model.Ministral8B()
	dev := gpu.H100()
	n := opt.n(20)

	load := func(outputScale float64) []workload.Request {
		g := workload.NewGen(opt.Seed)
		reqs := g.LongDocQA(n)
		for i := range reqs {
			reqs[i].OutputLen = int(float64(reqs[i].OutputLen) * outputScale)
			if reqs[i].OutputLen < 2 {
				reqs[i].OutputLen = 2
			}
		}
		workload.AllAtOnce(reqs)
		return reqs
	}

	type system struct {
		name        string
		jenga       bool
		cache       bool
		outputScale float64
	}
	systems := []system{
		{name: "vLLM", cache: false, outputScale: 1},
		{name: "SGLang", cache: true, outputScale: 1}, // radix-style caching
		{name: "TGI", cache: false, outputScale: 0.6}, // no --ignore-eos
		{name: "Jenga", jenga: true, cache: true, outputScale: 1},
	}

	tbl := trace.NewTable("Fig. 15 decode batch size (Ministral, 20 long-doc requests)",
		"system", "mean decode batch", "decode steps", "finished", "timeline")
	var series []trace.Series
	for _, s := range systems {
		var mgr core.Manager
		var err error
		if s.jenga {
			mgr, err = newJenga(spec, dev, opt, s.cache, 0)
		} else {
			mgr, err = newPaged(spec, dev, opt, s.cache, 0, 0)
		}
		if err != nil {
			return err
		}
		res, err := serve(spec, dev, mgr, load(s.outputScale), func(c *engine.Config) {
			c.MaxBatchTokens = 8192
			c.MaxPrefills = 4
			c.SampleEvery = 1 // keeps the per-step decode timeline
		})
		if err != nil {
			return fmt.Errorf("fig15 %s: %w", s.name, err)
		}
		decodeSteps := 0
		pts := make([]float64, 0, len(res.DecodeBatchTimeline))
		for _, b := range res.DecodeBatchTimeline {
			if b > 0 {
				decodeSteps++
				pts = append(pts, float64(b))
			}
		}
		series = append(series, trace.Series{Name: s.name, Points: pts})
		tbl.AddRow(s.name,
			fmt.Sprintf("%.2f", res.MeanDecodeBatch),
			decodeSteps,
			res.Finished,
			trace.Sparkline(pts, 40))
	}
	if opt.CSVDir != "" {
		f, err := os.Create(filepath.Join(opt.CSVDir, "fig15-decode-batch-series.csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteSeriesCSV(f, series...); err != nil {
			return err
		}
	}
	return emit(w, opt, tbl)
}
