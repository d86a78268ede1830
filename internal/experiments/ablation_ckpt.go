package experiments

import (
	"fmt"
	"io"

	"jenga/internal/bench"
	"jenga/internal/core"
	"jenga/internal/model"
	"jenga/internal/trace"
)

// AblationCheckpoint sweeps the Mamba state-checkpoint interval (§5.3
// fixes it at 512; Marconi [38] proposes smarter selection). Shorter
// intervals raise the prefix-cache hit length on repeated prompts but
// multiply the cached-state footprint — Jamba's state is 147 MB per
// checkpoint, so the interval is a real capacity knob.
func AblationCheckpoint(w io.Writer, opt Options) error {
	opt = opt.norm()
	base := model.Jamba52B()
	promptLen := 3000

	tbl := trace.NewTable("§5.3 Mamba checkpoint-interval ablation (Jamba, repeated 3000-token prompt)",
		"interval", "hit tokens", "hit %", "cached state GB per request", "checkpoints")
	for _, every := range []int{256, 512, 1024, 2048} {
		spec := *base
		spec.Groups = append([]model.KVGroup{}, base.Groups...)
		spec.Groups[1].CheckpointEvery = every
		mgr, err := core.New(core.Config{
			Spec: &spec, CapacityBytes: 40 << 30, TokensPerPage: bench.TokensPerPage,
			EnablePrefixCache: true, RequestAware: true,
		})
		if err != nil {
			return err
		}
		seq := &core.Sequence{ID: 1, PromptLen: promptLen}
		for i := 0; i < promptLen; i++ {
			seq.Tokens = append(seq.Tokens, core.Token{ID: int32(i%50000 + 1)})
		}
		if err := mgr.Reserve(seq, promptLen, 1); err != nil {
			return fmt.Errorf("ablation-ckpt interval %d: %w", every, err)
		}
		mgr.Commit(seq, promptLen, 1)
		mgr.Release(seq, true)

		probe := &core.Sequence{ID: 2, PromptLen: promptLen, Tokens: seq.Tokens}
		hit := mgr.Lookup(probe)
		ckpts := promptLen / every
		stateGB := float64(ckpts) * float64(spec.Groups[1].StateBytes) * float64(spec.Groups[1].Layers) / (1 << 30)
		tbl.AddRow(every, hit,
			fmt.Sprintf("%.1f", 100*float64(hit)/float64(promptLen)),
			fmt.Sprintf("%.2f", stateGB), ckpts)
	}
	return emit(w, opt, tbl)
}
