package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jenga/internal/bench"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/workload"
)

// Shape-regression tests: these pin the qualitative results recorded in
// EXPERIMENTS.md so a refactor cannot silently lose a reproduced shape.
// They run the underlying simulations directly (not the table
// renderers) with the drivers' own runs at full scale.

// TestShapeFig15DecodeBatch locks the Fig. 15 result: Jenga's mean
// decode batch beats the flat baseline by ≥1.4× and finishes in fewer
// decode steps, on the paper's exact workload.
func TestShapeFig15DecodeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale simulation; skipped with -short")
	}
	load := func() []workload.Request {
		g := workload.NewGen(42)
		reqs := g.LongDocQA(20)
		workload.AllAtOnce(reqs)
		return reqs
	}
	systems := fig15Systems()
	res, err := serveEach(load, []bench.Replica{systems[0].replica, systems[3].replica}) // vLLM, Jenga
	if err != nil {
		t.Fatal(err)
	}
	v, j := res[0], res[1]
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
	base := fig16Replica()
	budget, err := gpu.KVBudget(base.Spec, base.Device, 0)
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
	res, err := serveEach(load, vs(base))
	if err != nil {
		t.Fatal(err)
	}
	wasteFrac := func(res *engine.Result) float64 {
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
	v, j := wasteFrac(res[0]), wasteFrac(res[1])
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
	entries := fig13L4()
	llama := entries[len(entries)-1]
	load := func() []workload.Request {
		g := workload.NewGen(42)
		reqs := g.MMLUPro(48, 1024)
		workload.AllAtOnce(reqs)
		return reqs
	}
	res, err := serveEach(load, llama.runs(gpu.L4()))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res[1].ReqPerSec / res[0].ReqPerSec; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("homogeneous overhead: jenga/vllm = %.3f, want ≈ 1.00", ratio)
	}
}

// TestExperimentOutputDeterministic renders every registered experiment
// at scale 0.1, seed 42, in IDs() order, and compares the result byte
// for byte with testdata/exp_scale01.golden. A refactor of the drivers
// must leave every printed number unchanged.
func TestExperimentOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped with -short")
	}
	var sb strings.Builder
	opt := Options{Scale: 0.1, Seed: 42}
	for _, id := range IDs() {
		if err := Registry[id](&sb, opt); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "exp_scale01.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from the golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, the golden %d", len(gl), len(wl))
	}
}
