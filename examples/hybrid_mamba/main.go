// Hybrid Transformer–Mamba serving: Jamba-1.5 52B mixes four
// full-attention layers with 28 Mamba layers whose per-sequence state
// is 1344× the per-token attention KV. The baseline statically
// partitions memory into a Mamba slot pool plus a paged KV pool; Jenga
// serves both from one LCM heap and checkpoints Mamba states every 512
// tokens for prefix caching (§5.3).
package main

import (
	"fmt"
	"log"

	"jenga"
)

func main() {
	spec := jenga.Models.Jamba52B()
	dev := jenga.H100()
	budget, err := jenga.KVBudget(spec, dev, 0)
	if err != nil {
		log.Fatal(err)
	}
	attn := spec.Group("attn")
	mamba := spec.Group("mamba")
	fmt.Printf("%s: mamba state %s per layer = %d× the per-token attention KV\n",
		spec.Name, mib(int64(mamba.StateBytes)), mamba.StateBytes/attn.BytesPerToken)
	geo, err := spec.Geometry(16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LCM page %s; attention pages per large page: %d\n",
		mib(int64(geo.LargePageBytes)), geo.Ratio["attn"])

	load := func() []jenga.Request {
		g := jenga.NewWorkloadGen(5)
		reqs := g.MMLUPro(96, 1024)
		jenga.AllAtOnce(reqs)
		return reqs
	}
	run := func(name string, mgr jenga.Manager) {
		eng, err := jenga.NewEngine(jenga.EngineConfig{
			Spec: spec, Device: dev, Manager: mgr,
			MaxBatchTokens: 8192, MaxPrefills: 4,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(load())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %.3f req/s  decode batch %.1f  finished %d\n",
			name, res.ReqPerSec, res.MeanDecodeBatch, res.Finished)
	}

	// Baseline: a static pool of 32 Mamba slots (vLLM v0.6.3's
	// partition); idle slots are pure waste.
	paged, err := jenga.NewPagedBaseline(jenga.BaselineConfig{
		Spec: spec, CapacityBytes: budget, MaxSeqs: 32,
	})
	if err != nil {
		log.Fatal(err)
	}
	u := paged.Usage()
	fmt.Printf("baseline static mamba pool: %.1f GiB reserved up front\n", float64(u.Wasted)/(1<<30))
	run("static partition (vLLM)", paged)

	jm, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: budget, RequestAware: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	run("Jenga LCM heap", jm)

	// With prefix caching on, Jenga checkpoints Mamba states every 512
	// tokens; an identical prompt hits at the checkpoint boundary.
	jc, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: budget, EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	seq := &jenga.Sequence{ID: 1, PromptLen: 1500}
	for i := 0; i < 1500; i++ {
		seq.Tokens = append(seq.Tokens, jenga.Token{ID: int32(i + 1)})
	}
	if err := jc.Reserve(seq, 1500, 1); err != nil {
		log.Fatal(err)
	}
	jc.Commit(seq, 1500, 1)
	jc.Release(seq, true)
	rep := &jenga.Sequence{ID: 2, PromptLen: 1500, Tokens: seq.Tokens}
	fmt.Printf("mamba prefix hit for identical prompt: %d tokens (checkpoint-aligned multiple of 512)\n",
		jc.Lookup(rep))
}

func mib(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
