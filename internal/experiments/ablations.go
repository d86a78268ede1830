package experiments

import (
	"fmt"
	"io"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/metrics"
	"jenga/internal/model"
	"jenga/internal/trace"
	"jenga/internal/workload"
)

// AblationPageSize reproduces the §4.4 compatibility-layer discussion:
// the same Jamba workload served with the three candidate page sizes.
//
//   - LCM (Jenga): natural per-type pages, near-zero fragmentation.
//   - MAX: every type uses the largest page (the Mamba state), so
//     attention pages carry enormous tails — emulated by padding the
//     attention group to the Mamba page size. (Avoiding that would
//     need 1344 tokens per page, beyond typical requests.)
//   - GCD: zero internal fragmentation, but KV tensors split across
//     pages, which the fastest GPU kernels reject — emulated as a
//     kernel-efficiency penalty at LCM-equivalent memory use.
func AblationPageSize(w io.Writer, opt Options) error {
	opt = opt.norm()
	spec := model.Jamba52B()
	dev := gpu.H100()
	n := opt.n(64)

	// Geometry facts from §4.4.
	attn := spec.Group("attn")
	mamba := spec.Group("mamba")
	facts := trace.NewTable("§4.4 geometry facts (Jamba-1.5 52B)",
		"fact", "value", "paper")
	facts.AddRow("tokens/page for MAX to avoid fragmentation",
		mamba.StateBytes/attn.BytesPerToken, "1344")
	facts.AddRow("per-layer LCM ratio at 16 tokens/page",
		mamba.StateBytes/(attn.BytesPerToken*16), "84x")
	geo, err := spec.Geometry(tokensPerPage)
	if err != nil {
		return err
	}
	facts.AddRow("group-level LCM ratio (max)", geo.MaxRatio(), "-")
	if err := emit(w, opt, facts); err != nil {
		return err
	}

	load := func() []workload.Request {
		g := workload.NewGen(opt.Seed)
		reqs := g.MMLUPro(n, 1024)
		workload.AllAtOnce(reqs)
		return reqs
	}
	// MAX: pad the attention page to the Mamba page size.
	maxSpec := *spec
	maxSpec.Name += "-maxpage"
	maxSpec.Groups = append([]model.KVGroup{}, spec.Groups...)
	mambaPage := mamba.StateBytes * mamba.Layers
	maxSpec.Groups[0].BytesPerToken = mambaPage / (attn.Layers * tokensPerPage)
	lcmRun := run{spec: spec, dev: dev, eng: engine.Config{KernelEfficiency: 1.0}}
	maxRun, gcdRun := lcmRun, lcmRun
	maxRun.spec = &maxSpec
	// GCD: LCM-equivalent memory at reduced kernel efficiency.
	gcdRun.eng.KernelEfficiency = 0.55
	res, err := serveEach(load, []run{lcmRun, maxRun, gcdRun})
	if err != nil {
		return fmt.Errorf("ablation-page: %w", err)
	}
	lcm, maxRes, gcd := res[0], res[1], res[2]

	tbl := trace.NewTable("§4.4 page-size policy ablation (Jamba, MMLU-pro)",
		"policy", "req/s", "vs LCM", "note")
	tbl.AddRow("LCM (Jenga)", fmt.Sprintf("%.3f", lcm.ReqPerSec), "1.00x", "per-type pages, no kernel change")
	tbl.AddRow("MAX", fmt.Sprintf("%.3f", maxRes.ReqPerSec),
		fmt.Sprintf("%.2fx", metrics.Speedup(maxRes.ReqPerSec, lcm.ReqPerSec)),
		"attention pages padded to the Mamba page")
	tbl.AddRow("GCD", fmt.Sprintf("%.3f", gcd.ReqPerSec),
		fmt.Sprintf("%.2fx", metrics.Speedup(gcd.ReqPerSec, lcm.ReqPerSec)),
		"no fragmentation, ~0.55x kernel efficiency")
	return emit(w, opt, tbl)
}

// AblationRequestAware reproduces the §4.3 / Fig. 8 design point at
// the allocator level: many concurrent requests grow token-by-token
// (the decode allocation pattern), interleaving their small-page
// allocations; half the requests then finish. With request-aware
// placement the finished requests' large pages return to the LCM
// allocator; with naive placement their small pages are scattered
// across large pages shared with live requests, stranding the memory.
func AblationRequestAware(w io.Writer, opt Options) error {
	opt = opt.norm()
	// The Fig. 6 geometry (cross-attention pages, ratio 3 per large
	// page) at tokensPerPage 1, so each decode step allocates one page.
	spec := &model.Spec{
		Name: "fig8", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 3, BytesPerToken: 128, Scope: model.ScopeText},
			{Name: "cross", Kind: model.CrossAttention, Layers: 2, BytesPerToken: 128, Scope: model.ScopeImage},
		},
	}
	requests := opt.n(64)
	tokensEach := 96

	tbl := trace.NewTable("§4.3 request-aware allocation ablation (Fig. 8 churn)",
		"placement", "large pages reclaimed", "stranded large pages", "free after churn %")
	for _, aware := range []bool{true, false} {
		mgr, err := core.New(core.Config{
			Spec: spec, CapacityBytes: int64(requests*tokensEach*2) * 768,
			TokensPerPage: 1, RequestAware: aware,
		})
		if err != nil {
			return err
		}
		seqs := make([]*core.Sequence, requests)
		for i := range seqs {
			seqs[i] = &core.Sequence{ID: core.RequestID(i + 1)}
		}
		// Interleaved decode-style growth: one token per request per
		// round (Fig. 8's alternating allocate pattern).
		for tok := 0; tok < tokensEach; tok++ {
			for _, s := range seqs {
				s.Tokens = append(s.Tokens, core.Token{ID: int32(tok + 1)})
				if err := mgr.Reserve(s, len(s.Tokens), core.Tick(tok)); err != nil {
					return err
				}
				mgr.Commit(s, len(s.Tokens), core.Tick(tok))
			}
		}
		before := mgr.Stats().LargeReclaims
		// Every other request completes (Fig. 8's free pattern).
		for i := 0; i < requests; i += 2 {
			mgr.Release(seqs[i], false)
		}
		st := mgr.Stats()
		u := mgr.Usage()
		// Stranded: wasted bytes are empty small pages trapped inside
		// partially used large pages.
		stranded := u.Wasted / 768
		freePct := 100 * float64(u.Free) / float64(mgr.Capacity())
		label := "naive"
		if aware {
			label = "request-aware (Jenga)"
		}
		tbl.AddRow(label, st.LargeReclaims-before, stranded, fmt.Sprintf("%.1f", freePct))
		for i := 1; i < requests; i += 2 {
			mgr.Release(seqs[i], false)
		}
	}
	return emit(w, opt, tbl)
}
