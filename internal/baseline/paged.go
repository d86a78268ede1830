// Package baseline implements the memory managers Jenga is compared
// against: the vLLM v0.6.3-style PagedAttention manager (one page size
// for every layer, no sliding-window freeing, static Mamba partition),
// and the two speculative-decoding strategies of §7.4 (vLLM-max and
// the SmartSpec-style manual split).
//
// Every baseline implements core.Manager, so the engine runs identical
// scheduling over either manager — only memory management differs,
// mirroring the paper's methodology.
package baseline

import (
	"fmt"

	"jenga/internal/core"
	"jenga/internal/model"
)

// FlattenedGroupName is the single layer type the PagedAttention
// baseline sees.
const FlattenedGroupName = "all"

// Flatten collapses a heterogeneous spec into the homogeneous view
// PagedAttention requires (§3.2): one KV group storing every token for
// every attention layer, regardless of scope or window. Mamba and
// vision-embedding groups are excluded (handled separately).
func Flatten(spec *model.Spec) *model.Spec {
	perTok := 0
	for i := range spec.Groups {
		g := &spec.Groups[i]
		if g.Kind == model.Mamba || g.Kind == model.VisionEmbedding {
			continue
		}
		// Sharing-unaware: allocate KV for every physical layer.
		perTok += g.BytesPerToken * g.Physical()
	}
	flat := &model.Spec{
		Name:         spec.Name + "-flat",
		Params:       spec.Params,
		ActiveParams: spec.ActiveParams,
		WeightBytes:  spec.WeightBytes,
		HiddenSize:   spec.HiddenSize,
		Groups: []model.KVGroup{{
			Name: FlattenedGroupName, Kind: model.FullAttention,
			Layers: 1, BytesPerToken: perTok, Scope: model.ScopeAll,
		}},
		Vision: spec.Vision,
	}
	return flat
}

// Config configures the PagedAttention baseline.
type Config struct {
	// Spec is the true (heterogeneous) model architecture.
	Spec *model.Spec
	// CapacityBytes is the KV budget, shared between the paged pool and
	// the static Mamba pool.
	CapacityBytes int64
	// TokensPerPage is the page granularity (default 16).
	TokensPerPage int
	// EnablePrefixCache enables vLLM-style full-prefix caching.
	EnablePrefixCache bool
	// MaxSeqs sizes the static Mamba slot pool (vLLM's max_num_seqs);
	// default 64. Ignored for models without Mamba layers.
	MaxSeqs int
}

// seqTrack is what the baseline knows of a live sequence: how many of
// its text and image tokens hold KV, from which the true architecture's
// need follows (Spec.KVBytes), and whether it holds a static Mamba slot.
type seqTrack struct {
	text, image int
	mambaSlot   bool
}

// Paged is the PagedAttention baseline manager.
type Paged struct {
	spec  *model.Spec
	inner *core.Jenga

	// mambaPerSeq is a sequence's Mamba states, all groups; mambaText
	// and mambaImage are the part of it in groups scoped to one
	// modality, which a sequence needs only once it holds a token of
	// that modality.
	mambaPerSeq, mambaText, mambaImage int64
	mambaSlots                         int

	seqs map[core.RequestID]seqTrack
	// attnNeeded and mambaNeeded sum need over the live sequences.
	attnNeeded, mambaNeeded int64
	activeMamba             int
}

var _ core.Manager = (*Paged)(nil)

// NewPaged builds the baseline manager.
func NewPaged(cfg Config) (*Paged, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("baseline: nil spec")
	}
	if cfg.MaxSeqs == 0 {
		cfg.MaxSeqs = 64
	}
	// At zero context a spec keeps only its Mamba states.
	perSeq := cfg.Spec.KVBytes(0, 0)
	slots := 0
	var pool int64
	if perSeq > 0 {
		slots = cfg.MaxSeqs
		pool = perSeq * int64(slots)
		if pool >= cfg.CapacityBytes {
			return nil, fmt.Errorf("baseline: static mamba pool %d exceeds capacity %d (lower MaxSeqs)",
				pool, cfg.CapacityBytes)
		}
	}
	inner, err := core.New(core.Config{
		Spec:              Flatten(cfg.Spec),
		CapacityBytes:     cfg.CapacityBytes - pool,
		TokensPerPage:     cfg.TokensPerPage,
		EnablePrefixCache: cfg.EnablePrefixCache,
		RequestAware:      true,
	})
	if err != nil {
		return nil, err
	}
	p := &Paged{
		spec:        cfg.Spec,
		inner:       inner,
		mambaPerSeq: perSeq,
		mambaSlots:  slots,
		seqs:        make(map[core.RequestID]seqTrack),
	}
	for i := range cfg.Spec.Groups {
		g := &cfg.Spec.Groups[i]
		if g.Kind != model.Mamba {
			continue
		}
		state := int64(g.StateBytes) * int64(g.Layers)
		switch g.Scope {
		case model.ScopeText:
			p.mambaText += state
		case model.ScopeImage:
			p.mambaImage += state
		}
	}
	return p, nil
}

// Lookup implements core.Manager.
func (p *Paged) Lookup(seq *core.Sequence) int { return p.inner.Lookup(seq) }

// CachedPrefix implements core.Manager.
func (p *Paged) CachedPrefix(seq *core.Sequence) int { return p.inner.CachedPrefix(seq) }

// Reserve implements core.Manager. For Mamba models a static slot must
// be available — the vLLM v0.6.3 static-partition behavior.
func (p *Paged) Reserve(seq *core.Sequence, upTo int, now core.Tick) error {
	if tr := p.seqs[seq.ID]; p.mambaPerSeq > 0 && !tr.mambaSlot {
		if p.activeMamba >= p.mambaSlots {
			return core.ErrNoSpace
		}
		tr.mambaSlot = true
		p.activeMamba++
		p.seqs[seq.ID] = tr
	}
	if err := p.inner.Reserve(seq, upTo, now); err != nil {
		return err
	}
	// A prefix hit skips tokens without a Commit call; account for them.
	p.advance(seq, p.inner.CachedPrefix(seq))
	return nil
}

// Commit implements core.Manager.
func (p *Paged) Commit(seq *core.Sequence, upTo int, now core.Tick) {
	p.inner.Commit(seq, upTo, now)
	p.advance(seq, upTo)
}

// Release implements core.Manager.
func (p *Paged) Release(seq *core.Sequence, cache bool) {
	p.inner.Release(seq, cache)
	tr, ok := p.seqs[seq.ID]
	if !ok {
		return
	}
	attn, mamba := p.need(tr)
	p.attnNeeded -= attn
	p.mambaNeeded -= mamba
	if tr.mambaSlot {
		p.activeMamba--
	}
	delete(p.seqs, seq.ID)
}

// EncodeImages implements core.Manager: the baseline has no embedding
// cache; the engine re-runs the encoder each chunk.
func (p *Paged) EncodeImages(*core.Sequence, int, core.Tick) error { return nil }

// DropImages implements core.Manager (no-op).
func (p *Paged) DropImages(*core.Sequence, int) {}

// SupportsVisionCache implements core.Manager.
func (p *Paged) SupportsVisionCache() bool { return false }

// Footprint implements core.Manager: the flattened prompt KV plus one
// static Mamba slot.
func (p *Paged) Footprint(seq *core.Sequence) int64 {
	return p.inner.Footprint(seq) + p.mambaPerSeq
}

// Capacity implements core.Manager.
func (p *Paged) Capacity() int64 {
	return p.inner.Capacity() + p.mambaPool()
}

// Stats exposes the inner allocator's counters.
func (p *Paged) Stats() core.Stats { return p.inner.Stats() }

// need is what a sequence needs per the true architecture, split into
// attention KV and Mamba states: nothing before its first token, and a
// Mamba group scoped to one modality needs its state only once a token
// of that modality arrives.
func (p *Paged) need(tr seqTrack) (attn, mamba int64) {
	if tr.text+tr.image == 0 {
		return 0, 0
	}
	mamba = p.mambaPerSeq
	if tr.text == 0 {
		mamba -= p.mambaText
	}
	if tr.image == 0 {
		mamba -= p.mambaImage
	}
	return p.spec.KVBytes(tr.text, tr.image) - p.mambaPerSeq, mamba
}

// advance moves seq's committed counts through full-token position
// upTo and the running sums with them.
func (p *Paged) advance(seq *core.Sequence, upTo int) {
	tr := p.seqs[seq.ID]
	seen := tr.text + tr.image
	if upTo <= seen {
		return
	}
	attn, mamba := p.need(tr)
	img := core.CountImages(seq.Span(seen, upTo))
	tr.image += img
	tr.text += upTo - seen - img
	nextAttn, nextMamba := p.need(tr)
	p.attnNeeded += nextAttn - attn
	p.mambaNeeded += nextMamba - mamba
	p.seqs[seq.ID] = tr
}

// Usage implements core.Manager. The inner manager reports every
// committed token as used; the baseline re-labels KV the true
// architecture would never read again (out-of-window tokens, tokens
// stored in layers of the other modality, idle Mamba slots) as waste —
// the quantity Fig. 16 plots in red.
func (p *Paged) Usage() core.Usage {
	in := p.inner.UsageTotals()
	u, deadAttn := p.totals(in)
	u.PerGroup = map[string]core.GroupUsage{
		FlattenedGroupName: {
			Used:   p.attnNeeded,
			Cached: u.Cached,
			Wasted: deadAttn + in.Wasted,
		},
	}
	if p.mambaPerSeq > 0 {
		u.PerGroup["mamba-pool"] = core.GroupUsage{
			Used:   p.mambaNeeded,
			Wasted: p.mambaPool() - p.mambaNeeded,
		}
	}
	return u
}

// UsageTotals implements core.Manager (the PerGroup-free hot-path form).
func (p *Paged) UsageTotals() core.Usage {
	u, _ := p.totals(p.inner.UsageTotals())
	return u
}

// totals folds the inner manager's aggregates into the baseline's
// re-labeled view, and returns the committed KV no live sequence needs
// (deadAttn), which Usage's PerGroup breakdown reports.
func (p *Paged) totals(in core.Usage) (u core.Usage, deadAttn int64) {
	deadAttn = max(in.Used-p.attnNeeded, 0)
	return core.Usage{
		Used:   p.attnNeeded + p.mambaNeeded,
		Cached: in.Cached,
		Wasted: deadAttn + in.Wasted + p.mambaPool() - p.mambaNeeded,
		Free:   in.Free,
	}, deadAttn
}

// mambaPool is the static Mamba partition's size.
func (p *Paged) mambaPool() int64 { return p.mambaPerSeq * int64(p.mambaSlots) }
