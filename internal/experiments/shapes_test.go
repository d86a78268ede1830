package experiments

import (
	"strings"
	"testing"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/workload"
)

// Shape-regression tests: these pin the qualitative results recorded in
// EXPERIMENTS.md so a refactor cannot silently lose a reproduced shape.
// They run the underlying simulations directly (not the table
// renderers) with the same configurations at full scale.

// TestShapeFig15DecodeBatch locks the Fig. 15 result: Jenga's mean
// decode batch beats the flat baseline by ≥1.4× and finishes in fewer
// decode steps, on the paper's exact workload.
func TestShapeFig15DecodeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation; skipped with -short")
	}
	spec := model.Ministral8B()
	dev := gpu.H100()
	load := func() []workload.Request {
		g := workload.NewGen(42)
		reqs := g.LongDocQA(20)
		workload.AllAtOnce(reqs)
		return reqs
	}
	run := func(jenga bool) *engine.Result {
		var mgr core.Manager
		var err error
		if jenga {
			mgr, err = newJenga(spec, dev, true, 0)
		} else {
			mgr, err = newPaged(spec, dev, false, 0, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := serve(spec, dev, mgr, load(), func(c *engine.Config) {
			c.MaxBatchTokens = 8192
			c.MaxPrefills = 4
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	v := run(false)
	j := run(true)
	if v.Finished != 20 || j.Finished != 20 {
		t.Fatalf("finished: vllm %d jenga %d", v.Finished, j.Finished)
	}
	ratio := j.MeanDecodeBatch / v.MeanDecodeBatch
	if ratio < 1.4 {
		t.Errorf("decode batch ratio = %.2f (jenga %.2f vs vllm %.2f), want ≥ 1.4 (paper 1.95)",
			ratio, j.MeanDecodeBatch, v.MeanDecodeBatch)
	}
}

// TestShapeFig16Waste locks the Fig. 16 result: the baseline wastes
// >15% of KV memory on the Ministral trace while Jenga wastes <0.5%.
func TestShapeFig16Waste(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation; skipped with -short")
	}
	spec := model.Ministral8B()
	dev := gpu.H100()
	budget, err := gpu.KVBudget(spec, dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	load := func() []workload.Request {
		g := workload.NewGen(42)
		arts := g.Articles(8, 80000)
		reqs := g.ArxivQA(arts, 8, 150)
		workload.AllAtOnce(reqs)
		return reqs
	}
	wasteFrac := func(jenga bool) float64 {
		var mgr core.Manager
		var err error
		if jenga {
			mgr, err = newJenga(spec, dev, false, 0)
		} else {
			mgr, err = newPaged(spec, dev, false, 0, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := serve(spec, dev, mgr, load(), func(c *engine.Config) {
			c.SampleEvery = 4
			c.MaxBatchTokens = 8192
			c.MaxPrefills = 4
		})
		if err != nil {
			t.Fatal(err)
		}
		var wasted float64
		n := 0
		for _, s := range res.MemTimeline {
			if s.Usage.Used == 0 && s.Usage.Wasted == 0 {
				continue
			}
			wasted += float64(s.Usage.Wasted)
			n++
		}
		if n == 0 {
			t.Fatal("no samples")
		}
		return wasted / float64(n) / float64(budget)
	}
	v := wasteFrac(false)
	j := wasteFrac(true)
	if v < 0.15 {
		t.Errorf("baseline waste = %.1f%%, want > 15%% (paper 38.2%%)", v*100)
	}
	if j > 0.005 {
		t.Errorf("jenga waste = %.3f%%, want < 0.5%% (paper 0.04%%)", j*100)
	}
}

// TestShapeWasteTableExact locks the §3.2 numbers to one decimal.
func TestShapeWasteTableExact(t *testing.T) {
	cases := []struct {
		spec        *model.Spec
		text, image int
		want        float64
	}{
		{model.Llama32Vision11B(), 43, 6193, 0.796},
		{model.Gemma2_27B(), 8192, 0, 0.25},
		{model.Ministral8B(), 131072, 0, 0.5625},
	}
	for _, c := range cases {
		got := analyticWaste(c.spec, c.text, c.image)
		if diff := got - c.want; diff > 0.0005 || diff < -0.0005 {
			t.Errorf("%s: waste %.4f, want %.4f", c.spec.Name, got, c.want)
		}
	}
}

// TestShapeHomogeneousNoOverhead locks the Fig. 13 Llama row: on a
// self-attention-only model, Jenga and the baseline are identical.
func TestShapeHomogeneousNoOverhead(t *testing.T) {
	spec := model.Llama31_8B()
	dev := gpu.L4()
	load := func() []workload.Request {
		g := workload.NewGen(42)
		reqs := g.MMLUPro(48, 1024)
		workload.AllAtOnce(reqs)
		return reqs
	}
	run := func(jenga bool) float64 {
		var mgr core.Manager
		var err error
		if jenga {
			mgr, err = newJenga(spec, dev, false, 0)
		} else {
			mgr, err = newPaged(spec, dev, false, 0, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := serve(spec, dev, mgr, load(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.ReqPerSec
	}
	v, j := run(false), run(true)
	if ratio := j / v; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("homogeneous overhead: jenga/vllm = %.3f, want ≈ 1.00", ratio)
	}
}

// TestExperimentOutputDeterministic: identical options give
// byte-identical tables.
func TestExperimentOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two fig15 runs; skipped with -short")
	}
	var a, b strings.Builder
	opt := Options{Scale: 0.1, Seed: 5}
	if err := Fig15(&a, opt); err != nil {
		t.Fatal(err)
	}
	if err := Fig15(&b, opt); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("fig15 output not deterministic")
	}
}
