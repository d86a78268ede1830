package baseline

import (
	"fmt"

	"jenga/internal/core"
	"jenga/internal/model"
)

// Speculative-decoding memory baselines (§7.4). The engine serves a
// model.WithDraft pair through one core.Manager and stores every
// accepted token in both models' KV; Jenga's answer is core.New on the
// pair itself (one heap, each group at its natural page size). The two
// managers here are what vLLM could do instead.

// maxPaged is the vLLM-max strategy: one uniform page size, set by the
// large model. Draft tokens occupy target-sized slots; the unused tail
// of every draft slot is waste.
type maxPaged struct {
	*core.Jenga
	slot, pad int64 // bytes per (target-sized) slot; unused tail of a draft slot
}

var _ core.Manager = (*maxPaged)(nil)

// NewVLLMMax builds the vLLM-max manager for the target/draft pair.
func NewVLLMMax(target, draft *model.Spec, capacity int64, tokensPerPage int, cache bool) (core.Manager, error) {
	tFlat := Flatten(target).Groups[0].BytesPerToken
	dFlat := Flatten(draft).Groups[0].BytesPerToken
	if dFlat > tFlat {
		return nil, fmt.Errorf("baseline: draft KV (%d) exceeds target KV (%d) per token", dFlat, tFlat)
	}
	spec := &model.Spec{
		Name:        target.Name + "+max",
		Params:      target.Params,
		WeightBytes: target.WeightBytes,
		HiddenSize:  target.HiddenSize,
		Groups: []model.KVGroup{
			{Name: "t:all", Kind: model.FullAttention, Layers: 1, BytesPerToken: tFlat},
			// Draft slots padded to the target's size: the defining
			// fragmentation of vLLM-max.
			{Name: "d:all", Kind: model.FullAttention, Layers: 1, BytesPerToken: tFlat},
		},
	}
	m, err := core.New(core.Config{
		Spec: spec, CapacityBytes: capacity, TokensPerPage: tokensPerPage,
		EnablePrefixCache: cache, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	return &maxPaged{Jenga: m, slot: int64(tFlat), pad: int64(tFlat - dFlat)}, nil
}

// Usage re-labels the padded tail of live draft slots as waste.
func (m *maxPaged) Usage() core.Usage { return m.relabel(m.Jenga.Usage()) }

// UsageTotals is the PerGroup-free hot-path form of Usage.
func (m *maxPaged) UsageTotals() core.Usage { return m.relabel(m.Jenga.UsageTotals()) }

// relabel moves the padding out of Used. The two groups hold the same
// live tokens in equal slots, so half of Used is draft slots.
func (m *maxPaged) relabel(u core.Usage) core.Usage {
	pad := u.Used / (2 * m.slot) * m.pad
	u.Used -= pad
	u.Wasted += pad
	return u
}

// manualSplit is the SmartSpec-style manual split (vllm-manual): memory
// statically divided between two flattened paged pools, one per model.
// Every operation applies to both pools and the accounting is their
// sum; a sequence is resident only as far as both pools hold it.
type manualSplit struct{ target, draft *Paged }

var _ core.Manager = (*manualSplit)(nil)

// NewVLLMManual builds the manual split for the target/draft pair. The
// pools fill in lockstep — each accepted token is stored once in each —
// so capacity divides in the ratio of the models' per-token KV.
func NewVLLMManual(target, draft *model.Spec, capacity int64, tokensPerPage int, cache bool) (core.Manager, error) {
	tFlat := int64(Flatten(target).Groups[0].BytesPerToken)
	dFlat := int64(Flatten(draft).Groups[0].BytesPerToken)
	draftCap := capacity * dFlat / (tFlat + dFlat)
	tm, err := NewPaged(Config{
		Spec: target, CapacityBytes: capacity - draftCap,
		TokensPerPage: tokensPerPage, EnablePrefixCache: cache,
	})
	if err != nil {
		return nil, err
	}
	dm, err := NewPaged(Config{
		Spec: draft, CapacityBytes: draftCap,
		TokensPerPage: tokensPerPage, EnablePrefixCache: cache,
	})
	if err != nil {
		return nil, err
	}
	return &manualSplit{target: tm, draft: dm}, nil
}

func (m *manualSplit) Lookup(seq *core.Sequence) int {
	return min(m.target.Lookup(seq), m.draft.Lookup(seq))
}

func (m *manualSplit) CachedPrefix(seq *core.Sequence) int {
	return min(m.target.CachedPrefix(seq), m.draft.CachedPrefix(seq))
}

func (m *manualSplit) Reserve(seq *core.Sequence, upTo int, now core.Tick) error {
	if err := m.target.Reserve(seq, upTo, now); err != nil {
		return err
	}
	return m.draft.Reserve(seq, upTo, now)
}

func (m *manualSplit) Commit(seq *core.Sequence, upTo int, now core.Tick) {
	m.target.Commit(seq, upTo, now)
	m.draft.Commit(seq, upTo, now)
}

func (m *manualSplit) Release(seq *core.Sequence, cache bool) {
	m.target.Release(seq, cache)
	m.draft.Release(seq, cache)
}

// Usage sums the pools; PerGroup keeps each pool's groups apart under
// the pair's "t:" / "d:" prefixes.
func (m *manualSplit) Usage() core.Usage {
	t, d := m.target.Usage(), m.draft.Usage()
	u := sumTotals(t, d)
	u.PerGroup = make(map[string]core.GroupUsage, len(t.PerGroup)+len(d.PerGroup))
	//jenga:order-ok each group is copied to its own key; no cross-key state
	for name, g := range t.PerGroup {
		u.PerGroup["t:"+name] = g
	}
	//jenga:order-ok each group is copied to its own key; no cross-key state
	for name, g := range d.PerGroup {
		u.PerGroup["d:"+name] = g
	}
	return u
}

func (m *manualSplit) UsageTotals() core.Usage {
	return sumTotals(m.target.UsageTotals(), m.draft.UsageTotals())
}

func sumTotals(t, d core.Usage) core.Usage {
	return core.Usage{Used: t.Used + d.Used, Cached: t.Cached + d.Cached, Wasted: t.Wasted + d.Wasted, Free: t.Free + d.Free}
}

func (m *manualSplit) Capacity() int64 { return m.target.Capacity() + m.draft.Capacity() }

func (m *manualSplit) Footprint(seq *core.Sequence) int64 {
	return m.target.Footprint(seq) + m.draft.Footprint(seq)
}

// The paged pools have no embedding cache.
func (m *manualSplit) EncodeImages(*core.Sequence, int, core.Tick) error { return nil }
func (m *manualSplit) DropImages(*core.Sequence, int)                    {}
func (m *manualSplit) SupportsVisionCache() bool                         { return false }
