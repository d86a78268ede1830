package core_test

import (
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/workload"
)

// TestWarmRestartEvictionOrder runs one engine twice over one manager.
// The second Run restarts the engine's clock at zero, so the pages it
// releases are keyed below every page the first run left cached: the
// one path where keys reach the eviction queue's fallback heap on
// purpose. Every step-3 victim of both runs must be the large page a
// fresh lazyHeap over the evictable large pages pops first
// (LargeVictimCheck, which the host tier's observer feeds).
func TestWarmRestartEvictionOrder(t *testing.T) {
	spec := &model.Spec{
		Name: "warm", Params: 100_000_000, WeightBytes: 2, HiddenSize: 256,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 2, BytesPerToken: 256},
		},
	}
	m, err := core.New(core.Config{
		Spec: spec, CapacityBytes: 2 << 20, TokensPerPage: 8,
		EnablePrefixCache: true, RequestAware: true, HostTierBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := &core.LargeVictimCheck{M: m}
	m.SetTierObserver(check)
	e, err := engine.New(engine.Config{
		Spec: spec, Manager: m, MaxBatchTokens: 512, MaxPrefills: 2,
		Device: gpu.Device{Name: "test-gpu", MemBytes: 1 << 30, FLOPS: 50e12, MemBW: 500e9, StepOverhead: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGen(7)
	var first int
	for run := 0; run < 2; run++ {
		reqs := g.ShareGPT(80)
		g.PoissonArrivals(reqs, 40)
		res, err := e.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Finished != len(reqs) {
			t.Fatalf("run %d finished %d of %d requests", run, res.Finished, len(reqs))
		}
		if check.Err != nil {
			t.Fatalf("run %d: %v", run, check.Err)
		}
		if run == 0 {
			first = check.Checked
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if first == 0 || check.Checked == first || check.FromHeap == 0 {
		t.Fatalf("checked %d victims in the first run, %d in the second, %d with the fallback heap in use: want some of each",
			first, check.Checked-first, check.FromHeap)
	}
	t.Logf("%d victims checked, %d in the second run, %d with the fallback heap in use", check.Checked, check.Checked-first, check.FromHeap)
}
