// Tiered KV offload (§8): a host-memory tier with swap-based
// preemption, versus vLLM-style recompute preemption with no tier.
//
// The scenario serves 24 shared-prefix groups whose combined prefix
// working set is many times the GPU KV budget: the evictor constantly
// discards one group's prefix to make room for another's. Without a
// tier those bytes are simply gone — every arrival recomputes its
// group's 600-token prefix from scratch, and a preemption victim
// whose pages were evicted recomputes its own work too. With a host
// tier, whole-large-page eviction spills instead of discarding and
// prefix lookups restore spilled blocks over PCIe, so the engine pays
// transfer time instead of recompute FLOPs; PreemptMode=swap
// additionally copies a victim's pages down at preemption time, so
// its resume never depends on eviction luck.
//
// Run: go run ./examples/tiered_offload
package main

import (
	"fmt"
	"time"

	"jenga"
)

// miniSpec is a Gemma-shaped full+window hybrid small enough that a
// 1 MiB KV budget models a badly starved replica: a loaded machine
// where preemption is the norm, not the exception.
func miniSpec() *jenga.Spec {
	return &jenga.Spec{
		Name: "mini-win", Params: 100_000_000, WeightBytes: 2, HiddenSize: 256,
		Groups: []jenga.KVGroup{
			{Name: "full", Kind: jenga.FullAttention, Layers: 1, BytesPerToken: 256},
			{Name: "window", Kind: jenga.SlidingWindow, Layers: 3, BytesPerToken: 256, Window: 64},
		},
	}
}

func run(mode jenga.PreemptMode, hostBytes int64) *jenga.Result {
	spec := miniSpec()
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec:              spec,
		CapacityBytes:     1 << 20, // deliberately starved
		TokensPerPage:     8,
		EnablePrefixCache: true,
		RequestAware:      true,
		HostTierBytes:     hostBytes,
	})
	if err != nil {
		panic(err)
	}
	eng, err := jenga.NewEngine(jenga.EngineConfig{
		Spec: spec,
		Device: jenga.Device{
			Name: "small-gpu", MemBytes: 1 << 30, FLOPS: 50e12, MemBW: 500e9,
			PCIeBW: 25e9, StepOverhead: time.Millisecond,
		},
		Manager: mgr, MaxBatchTokens: 512, MaxPrefills: 2,
		MaxRunning: 16, PreemptMode: mode,
	})
	if err != nil {
		panic(err)
	}
	gen := jenga.NewWorkloadGen(42)
	reqs := gen.PrefixGroups(24, 8, 600, 64)
	gen.PoissonArrivals(reqs, 400)
	res, err := eng.Run(reqs)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	fmt.Println("tiered offload: host-tier swap vs recompute when the prefix working set")
	fmt.Println("overflows GPU KV (24 shared prefixes x 600 tokens vs a 1 MiB budget)")
	fmt.Println()
	fmt.Printf("%-22s %9s %9s %10s %10s %9s %9s %9s\n",
		"mode", "finished", "computed", "restored", "tier-hit", "hit", "p99 TTFT", "e2e mean")
	for _, c := range []struct {
		name string
		mode jenga.PreemptMode
		host int64
	}{
		{"recompute (no tier)", jenga.PreemptRecompute, 0},
		{"swap (64 MiB tier)", jenga.PreemptSwap, 64 << 20},
	} {
		res := run(c.mode, c.host)
		fmt.Printf("%-22s %9d %9d %10d %8.1f%% %8.1f%% %9s %9s\n",
			c.name, res.Finished, res.ComputedPromptTokens,
			res.RestoredTokens, 100*res.TierHitRate, 100*res.HitRate,
			res.Latency(0).P99TTFT.Round(time.Millisecond), res.MeanE2E.Round(time.Millisecond))
		if c.host > 0 {
			fmt.Printf("%-22s %s\n", "", fmt.Sprintf(
				"tier: %d spills (%d MiB D2H), %d block restores (%d MiB H2D), host %d/%d MiB",
				res.SwapOuts, res.SwapOutBytes>>20, res.SwapIns, res.SwapInBytes>>20,
				res.HostTierUsed>>20, res.HostTierCapacity>>20))
		}
	}
	fmt.Println()
	fmt.Println("The tier trades PCIe transfer time for recompute FLOPs: evicted prefixes")
	fmt.Println("survive one tier down, so the computed-token column collapses, the hit")
	fmt.Println("rate jumps, and tail TTFT improves with it.")
}
