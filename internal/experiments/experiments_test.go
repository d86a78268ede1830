package experiments

import (
	"io"
	"strings"
	"testing"

	"jenga/internal/model"
)

// tinyOpt keeps experiment smoke tests fast.
var tinyOpt = Options{Scale: 0.1, Seed: 7}

func TestRegistryComplete(t *testing.T) {
	want := []string{"waste", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "ablation-page", "ablation-reqaware", "ablation-ckpt", "table1"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(ids), len(want), ids)
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	// IDs are sorted.
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not sorted: %v", ids)
		}
	}
}

// TestEveryExperimentRuns smoke-tests each runner at tiny scale and
// checks it produces a table.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped with -short")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var sb strings.Builder
			if err := Registry[id](&sb, tinyOpt); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := sb.String()
			if !strings.Contains(out, "##") {
				t.Errorf("%s produced no table header:\n%s", id, out)
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Errorf("%s produced too little output", id)
			}
		})
	}
}

func TestWasteNumbersMatchPaper(t *testing.T) {
	var sb strings.Builder
	if err := WasteAnalysis(&sb, tinyOpt); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"79.6", "25.0", "56.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("waste table missing paper number %s:\n%s", want, out)
		}
	}
}

func TestAblationGeometryFacts(t *testing.T) {
	var sb strings.Builder
	if err := AblationPageSize(&sb, tinyOpt); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1344") {
		t.Error("missing the 1344 tokens/page fact")
	}
	if !strings.Contains(out, "84") {
		t.Error("missing the 84x LCM ratio fact")
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.norm()
	if o.Scale != 1 || o.Seed != 42 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if n := (Options{Scale: 0.01}).norm().n(100); n != 4 {
		t.Errorf("scaled n floor = %d, want 4", n)
	}
	if n := (Options{Scale: 2}).norm().n(10); n != 20 {
		t.Errorf("scaled n = %d, want 20", n)
	}
}

func TestQuantized(t *testing.T) {
	base := Options{}.norm()
	_ = base
	spec := quantized(modelGemma())
	if spec.WeightBytes != 1 {
		t.Error("quantized should set fp8 weights")
	}
	if !strings.HasSuffix(spec.Name, "*") {
		t.Error("quantized should star the name")
	}
}

func TestUnknownExperimentAbsent(t *testing.T) {
	if _, ok := Registry["nope"]; ok {
		t.Error("unexpected experiment")
	}
	if testing.Short() {
		t.Skip("fig13 smoke run; skipped with -short")
	}
	if err := Fig13(io.Discard, Options{Scale: 0.05, Seed: 1}); err != nil {
		t.Fatalf("fig13 at tiny scale: %v", err)
	}
}

// modelGemma avoids importing model directly in multiple tests.
func modelGemma() *model.Spec { return model.Gemma2_27B() }
