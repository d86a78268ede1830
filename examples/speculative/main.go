// Speculative decoding with a shared Jenga heap: the character.ai-style
// target and a 1B draft are one paired Spec, so a Jenga manager built on
// it serves both models' KV from one memory pool, exchanging large
// pages as the mix of draft and target KV shifts (§6.1), and the
// ordinary engine runs it — SpecK draft proposals, one verify pass, a
// burst of accepted tokens per step. The same workload runs under the
// two §7.4 baselines — vLLM-max (uniform pages sized for the target)
// and the SmartSpec-style manual split — the Fig. 19 experiment as a
// runnable program.
package main

import (
	"fmt"
	"log"

	"jenga"
)

func main() {
	target := jenga.Models.CharacterAI70B()
	draft := jenga.Models.Llama32_1B()
	pair := jenga.WithDraft(target, draft)
	dev := jenga.H100()
	// Both models' weights live on-device; the rest is KV.
	budget, err := jenga.KVBudget(pair, dev, 0)
	if err != nil {
		log.Fatal(err)
	}

	run := func(name string, mgr jenga.Manager, err error) {
		if err != nil {
			log.Fatal(err)
		}
		eng, err := jenga.NewEngine(jenga.EngineConfig{Spec: pair, Device: dev, Manager: mgr, SampleEvery: 1})
		if err != nil {
			log.Fatal(err)
		}
		reqs := jenga.NewWorkloadGen(11).MMLUPro(48, 1024)
		jenga.AllAtOnce(reqs)
		res, err := eng.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}
		passes := 0
		for _, batch := range res.DecodeBatchTimeline {
			passes += batch
		}
		fmt.Printf("%-14s %.3f req/s  batch %.1f  %.2f tokens per verify pass (%d proposed + 1)  %d preemptions\n",
			name, res.ReqPerSec, res.MeanDecodeBatch,
			float64(res.GeneratedTokens)/float64(passes), jenga.SpecK, res.Preemptions)
	}

	vmax, err := jenga.NewVLLMMax(target, draft, budget, 16, false)
	run("vLLM-max", vmax, err)
	manual, err := jenga.NewVLLMManual(target, draft, budget, 16, false)
	run("vLLM-manual", manual, err)
	shared, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: pair, CapacityBytes: budget, TokensPerPage: 16, RequestAware: true,
	})
	run("Jenga shared", shared, err)
}
