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

// mambaBytesPerSeq returns the per-sequence recurrent state footprint.
func mambaBytesPerSeq(spec *model.Spec) int64 {
	var b int64
	for i := range spec.Groups {
		g := &spec.Groups[i]
		if g.Kind == model.Mamba {
			b += int64(g.StateBytes) * int64(g.Layers)
		}
	}
	return b
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

// seqTrack records what a live sequence actually needs, per true group,
// so the baseline's waste (allocated-but-dead KV) can be measured.
type seqTrack struct {
	seen      int   // full tokens consumed by the tracker
	proj      []int // per-true-group projected committed counts
	needed    int64 // ideal bytes per the true architecture
	mambaSlot bool
}

// Paged is the PagedAttention baseline manager.
type Paged struct {
	spec  *model.Spec
	inner *core.Jenga

	mambaPerSeq int64
	mambaSlots  int

	seqs        map[core.RequestID]*seqTrack
	neededAttn  int64
	activeMamba int
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
	perSeq := mambaBytesPerSeq(cfg.Spec)
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
	return &Paged{
		spec:        cfg.Spec,
		inner:       inner,
		mambaPerSeq: perSeq,
		mambaSlots:  slots,
		seqs:        make(map[core.RequestID]*seqTrack),
	}, nil
}

// Lookup implements core.Manager.
func (p *Paged) Lookup(seq *core.Sequence) int { return p.inner.Lookup(seq) }

// CachedPrefix implements core.Manager.
func (p *Paged) CachedPrefix(seq *core.Sequence) int { return p.inner.CachedPrefix(seq) }

// Reserve implements core.Manager. For Mamba models a static slot must
// be available — the vLLM v0.6.3 static-partition behavior.
func (p *Paged) Reserve(seq *core.Sequence, upTo int, now core.Tick) error {
	tr := p.track(seq)
	if p.mambaPerSeq > 0 && !tr.mambaSlot {
		if p.activeMamba >= p.mambaSlots {
			return core.ErrNoSpace
		}
		tr.mambaSlot = true
		p.activeMamba++
	}
	if err := p.inner.Reserve(seq, upTo, now); err != nil {
		return err
	}
	// A prefix hit skips tokens without a Commit call; account for them.
	p.advance(seq, tr, p.inner.CachedPrefix(seq))
	return nil
}

// Commit implements core.Manager.
func (p *Paged) Commit(seq *core.Sequence, upTo int, now core.Tick) {
	p.inner.Commit(seq, upTo, now)
	p.advance(seq, p.track(seq), upTo)
}

// Release implements core.Manager.
func (p *Paged) Release(seq *core.Sequence, cache bool) {
	p.inner.Release(seq, cache)
	tr, ok := p.seqs[seq.ID]
	if !ok {
		return
	}
	p.neededAttn -= tr.needed
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
	return p.inner.Capacity() + p.mambaPerSeq*int64(p.mambaSlots)
}

// Stats exposes the inner allocator's counters.
func (p *Paged) Stats() core.Stats { return p.inner.Stats() }

// track returns (creating if needed) the sequence tracker.
func (p *Paged) track(seq *core.Sequence) *seqTrack {
	tr, ok := p.seqs[seq.ID]
	if !ok {
		tr = &seqTrack{proj: make([]int, len(p.spec.Groups))}
		p.seqs[seq.ID] = tr
	}
	return tr
}

// advance updates the per-true-group needed-bytes accounting through
// full-token position upTo.
func (p *Paged) advance(seq *core.Sequence, tr *seqTrack, upTo int) {
	if upTo <= tr.seen {
		return
	}
	delta := seq.Tokens[tr.seen:upTo]
	for gi := range p.spec.Groups {
		g := &p.spec.Groups[gi]
		if g.Kind == model.VisionEmbedding {
			continue
		}
		add := 0
		for _, t := range delta {
			if g.StoresToken(t.Image()) {
				add++
			}
		}
		if add == 0 {
			continue
		}
		old := tr.proj[gi]
		tr.proj[gi] = old + add
		var inc int64
		unit := int64(g.BytesPerToken) * int64(g.Layers)
		switch g.Kind {
		case model.SlidingWindow, model.PyramidWindow:
			inc = int64(min(tr.proj[gi], g.Window)-min(old, g.Window)) * unit
		case model.Mamba:
			if old == 0 {
				inc = int64(g.StateBytes) * int64(g.Layers)
			}
		default:
			inc = int64(add) * unit
		}
		tr.needed += inc
		p.neededAttn += inc
	}
	tr.seen = upTo
}

// Usage implements core.Manager. The inner manager reports every
// committed token as used; the baseline re-labels KV the true
// architecture would never read again (out-of-window tokens, tokens
// stored in layers of the other modality, idle Mamba slots) as waste —
// the quantity Fig. 16 plots in red.
func (p *Paged) Usage() core.Usage {
	t := p.totals(p.inner.UsageTotals())
	u := t.u
	u.PerGroup = map[string]core.GroupUsage{
		FlattenedGroupName: {
			Used:   t.attnNeeded,
			Cached: u.Cached,
			Wasted: t.deadAttn + t.inWasted,
		},
	}
	if p.mambaPerSeq > 0 {
		u.PerGroup["mamba-pool"] = core.GroupUsage{
			Used:   t.mambaNeeded,
			Wasted: t.mambaPool - t.mambaNeeded,
		}
	}
	return u
}

// UsageTotals implements core.Manager (the PerGroup-free hot-path form).
func (p *Paged) UsageTotals() core.Usage {
	return p.totals(p.inner.UsageTotals()).u
}

// pagedTotals carries the re-labeled snapshot plus the intermediate
// quantities Usage's PerGroup breakdown reports.
type pagedTotals struct {
	u                                            core.Usage
	attnNeeded, mambaNeeded, mambaPool, deadAttn int64
	inWasted                                     int64
}

// totals folds the inner manager's aggregates into the baseline's
// re-labeled view.
func (p *Paged) totals(in core.Usage) pagedTotals {
	t := pagedTotals{mambaPool: p.mambaPerSeq * int64(p.mambaSlots), inWasted: in.Wasted}
	for _, tr := range p.seqs {
		for gi := range p.spec.Groups {
			g := &p.spec.Groups[gi]
			if g.Kind == model.Mamba {
				if tr.proj[gi] > 0 {
					t.mambaNeeded += int64(g.StateBytes) * int64(g.Layers)
				}
			}
		}
	}
	t.attnNeeded = p.neededAttn - t.mambaNeeded
	t.deadAttn = in.Used - t.attnNeeded
	if t.deadAttn < 0 {
		t.deadAttn = 0
	}
	t.u = core.Usage{
		Used:   t.attnNeeded + t.mambaNeeded,
		Cached: in.Cached,
		Wasted: t.deadAttn + in.Wasted + (t.mambaPool - t.mambaNeeded),
		Free:   in.Free,
	}
	return t
}
