// Package model describes LLM architectures as collections of KV groups.
//
// A KV group is a set of layers that share one KV-cache format and one
// token-dependency pattern (the unit Jenga calls a "layer type"). The
// memory manager never looks at weights: everything it needs — embedding
// sizes, sliding windows, Mamba state sizes, token scopes — is captured
// here, mirroring how the paper's implementation parses vLLM model
// configs (§7: "Jenga can parse all possible embedding sizes from the
// model structure").
package model

import (
	"fmt"
	"strings"
)

// Kind identifies the token-dependency pattern of a KV group.
type Kind int

const (
	// FullAttention layers attend to the entire prefix; every prefix
	// token's KV must stay resident (the classic PagedAttention case).
	FullAttention Kind = iota
	// SlidingWindow layers attend to the last Window tokens only;
	// KV outside the window can be freed (Gemma-2, Ministral).
	SlidingWindow
	// Mamba layers keep one fixed-size recurrent state per sequence
	// instead of per-token KV (Jamba). Jenga checkpoints the state
	// every CheckpointEvery tokens for prefix caching (§5.3).
	Mamba
	// CrossAttention layers hold encoder KV for image tokens only
	// (Llama 3.2 Vision / NVLM style).
	CrossAttention
	// VisionEmbedding is the vision-encoder output cache: one embedding
	// per image token, consumed by chunked prefill (§6.2).
	VisionEmbedding
	// PyramidWindow models PyramidKV-style token dropping: the layer
	// keeps a budget of the most recent/important tokens. Memory-wise it
	// behaves like a sliding window of Window tokens.
	PyramidWindow
)

// String returns the lower-case name used in traces and CLI output.
func (k Kind) String() string {
	switch k {
	case FullAttention:
		return "full"
	case SlidingWindow:
		return "window"
	case Mamba:
		return "mamba"
	case CrossAttention:
		return "cross"
	case VisionEmbedding:
		return "vision"
	case PyramidWindow:
		return "pyramid"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TokenScope says which tokens of a request a group stores KV for.
type TokenScope int

const (
	// ScopeAll covers every token of the sequence (text and image).
	ScopeAll TokenScope = iota
	// ScopeText covers text tokens only (self-attention in mllama).
	ScopeText
	// ScopeImage covers image tokens only (cross-attention, vision cache).
	ScopeImage
)

// String returns the scope name used in traces.
func (s TokenScope) String() string {
	switch s {
	case ScopeAll:
		return "all"
	case ScopeText:
		return "text"
	case ScopeImage:
		return "image"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// KVGroup describes one layer type: a set of Layers homogeneous layers
// that share a KV format and dependency pattern.
type KVGroup struct {
	// Name is unique within a Spec (e.g. "self", "cross", "mamba").
	Name string
	// Kind selects the dependency pattern and caching policy.
	Kind Kind
	// Layers is the number of layers in the group. For architectures
	// with cross-layer KV sharing (character.ai style) this counts
	// KV-owning layers only.
	Layers int
	// PhysicalLayers is the number of layers the group actually runs
	// (≥ Layers when several layers share one KV). A manager without
	// sharing support — the PagedAttention baseline — must allocate KV
	// for every physical layer. Zero means equal to Layers.
	PhysicalLayers int
	// BytesPerToken is the per-layer, per-token KV size in bytes
	// (2 × kv-heads × head-dim × dtype for attention layers; the
	// embedding size for VisionEmbedding groups). Zero for Mamba.
	BytesPerToken int
	// Window is the attention window in tokens (SlidingWindow and
	// PyramidWindow kinds).
	Window int
	// StateBytes is the per-layer recurrent state size (Mamba only).
	StateBytes int
	// CheckpointEvery is the Mamba prefix-cache checkpoint interval in
	// tokens; 0 means DefaultMambaCheckpoint.
	CheckpointEvery int
	// Scope restricts which tokens the group stores KV for.
	Scope TokenScope
	// Tag restricts the group to sequences carrying the same tag; empty
	// applies to all. Used when one manager serves several models'
	// requests at once (§6.1): each request stores KV only in its own
	// model's groups, and the models exchange memory at large-page
	// granularity.
	Tag string
}

// DefaultMambaCheckpoint is the paper's state-checkpoint interval (§5.3).
const DefaultMambaCheckpoint = 512

// PageBytes returns the small-page size for this group given the
// allocator's tokensPerPage: the bytes needed to hold tokensPerPage
// tokens (or one state checkpoint for Mamba groups) across every layer
// of the group. This is the paper's "customized page size" (Fig. 6:
// 2 cross layers × 128 = 256; 3 self layers × 128 = 384).
func (g *KVGroup) PageBytes(tokensPerPage int) int {
	if g.Kind == Mamba {
		return g.StateBytes * g.Layers
	}
	return g.BytesPerToken * g.Layers * tokensPerPage
}

// Physical returns the physical layer count (Layers when unset).
func (g *KVGroup) Physical() int {
	if g.PhysicalLayers > g.Layers {
		return g.PhysicalLayers
	}
	return g.Layers
}

// Checkpoint returns the effective Mamba checkpoint interval.
func (g *KVGroup) Checkpoint() int {
	if g.CheckpointEvery > 0 {
		return g.CheckpointEvery
	}
	return DefaultMambaCheckpoint
}

// StoresToken reports whether the group holds state for a token of the
// given modality (true = image token).
func (g *KVGroup) StoresToken(image bool) bool {
	switch g.Scope {
	case ScopeText:
		return !image
	case ScopeImage:
		return image
	default:
		return true
	}
}

// VisionSpec describes the vision encoder of a multi-modal model.
type VisionSpec struct {
	// Params is the encoder parameter count (for the cost model).
	Params int64
	// TokensPerImage is the number of image tokens one image expands to.
	TokensPerImage int
}

// Spec is a complete model architecture from the memory manager's and
// cost model's point of view.
type Spec struct {
	// Name is the display name used in experiment output.
	Name string
	// Params is the total parameter count.
	Params int64
	// ActiveParams is the per-token active parameter count for MoE
	// models (Jamba); 0 means all parameters are active.
	ActiveParams int64
	// WeightBytes is bytes per weight (2 = fp16, 1 = fp8).
	WeightBytes int
	// HiddenSize is the model dimension (cost model detail).
	HiddenSize int
	// Groups lists every KV group of the model.
	Groups []KVGroup
	// Vision is non-nil for multi-modal models.
	Vision *VisionSpec
	// Draft is non-nil for a speculative-decoding pair (WithDraft): the
	// small model that proposes tokens for this one to verify. Its KV
	// groups are already part of Groups; the pointer is what the cost
	// model prices the draft's own passes with.
	Draft *Spec
}

// WithDraft pairs target with a draft model for speculative decoding
// (§6.1). The pair is one model as far as memory goes: its KV groups
// are the union of both models' (prefixed "t:" and "d:"), every
// request stores each token in all of them, and a manager built on the
// pair therefore serves both models from one heap — each group at its
// natural page size. Everything else (parameters, vision encoder) is
// the target's; the engine runs a paired spec as propose-and-verify
// decoding and prices the draft's passes from Draft.
func WithDraft(target, draft *Spec) *Spec {
	pair := *target
	pair.Name = target.Name + "+" + draft.Name
	pair.Draft = draft
	pair.Groups = make([]KVGroup, 0, len(target.Groups)+len(draft.Groups))
	for _, g := range target.Groups {
		g.Name = "t:" + g.Name
		pair.Groups = append(pair.Groups, g)
	}
	for _, g := range draft.Groups {
		g.Name = "d:" + g.Name
		pair.Groups = append(pair.Groups, g)
	}
	return &pair
}

// WeightFootprint returns the device memory the model's own weights
// occupy — what one forward pass streams. A pair's Draft weights are
// not included: they belong to the draft's passes (gpu.KVBudget
// subtracts both).
func (s *Spec) WeightFootprint() int64 {
	w := s.Params * int64(s.WeightBytes)
	if s.Vision != nil {
		w += s.Vision.Params * int64(s.WeightBytes)
	}
	return w
}

// ActiveParamCount returns the parameters touched per token.
func (s *Spec) ActiveParamCount() int64 {
	if s.ActiveParams > 0 {
		return s.ActiveParams
	}
	return s.Params
}

// Group returns the group with the given name, or nil.
func (s *Spec) Group(name string) *KVGroup {
	for i := range s.Groups {
		if s.Groups[i].Name == name {
			return &s.Groups[i]
		}
	}
	return nil
}

// TotalLayers returns the number of KV-owning layers across all groups.
func (s *Spec) TotalLayers() int {
	n := 0
	for i := range s.Groups {
		n += s.Groups[i].Layers
	}
	return n
}

// Validate checks structural invariants of the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("model: spec has empty name")
	}
	if s.Params <= 0 {
		return fmt.Errorf("model %s: non-positive param count", s.Name)
	}
	if s.WeightBytes != 1 && s.WeightBytes != 2 && s.WeightBytes != 4 {
		return fmt.Errorf("model %s: weight bytes %d not in {1,2,4}", s.Name, s.WeightBytes)
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("model %s: no KV groups", s.Name)
	}
	seen := make(map[string]bool, len(s.Groups))
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Name == "" {
			return fmt.Errorf("model %s: group %d has empty name", s.Name, i)
		}
		if seen[g.Name] {
			return fmt.Errorf("model %s: duplicate group name %q", s.Name, g.Name)
		}
		seen[g.Name] = true
		if g.Layers <= 0 {
			return fmt.Errorf("model %s group %s: non-positive layer count", s.Name, g.Name)
		}
		switch g.Kind {
		case Mamba:
			if g.StateBytes <= 0 {
				return fmt.Errorf("model %s group %s: mamba group needs StateBytes", s.Name, g.Name)
			}
		case SlidingWindow, PyramidWindow:
			if g.Window <= 0 {
				return fmt.Errorf("model %s group %s: %v group needs Window", s.Name, g.Name, g.Kind)
			}
			if g.BytesPerToken <= 0 {
				return fmt.Errorf("model %s group %s: non-positive BytesPerToken", s.Name, g.Name)
			}
		default:
			if g.BytesPerToken <= 0 {
				return fmt.Errorf("model %s group %s: non-positive BytesPerToken", s.Name, g.Name)
			}
		}
		if g.Kind == VisionEmbedding && g.Scope != ScopeImage {
			return fmt.Errorf("model %s group %s: vision embedding group must have image scope", s.Name, g.Name)
		}
	}
	if s.Vision != nil && s.Vision.TokensPerImage <= 0 {
		return fmt.Errorf("model %s: vision spec needs TokensPerImage", s.Name)
	}
	if s.Draft != nil {
		if s.Draft.Draft != nil {
			return fmt.Errorf("model %s: draft %s has a draft of its own", s.Name, s.Draft.Name)
		}
		return s.Draft.Validate()
	}
	return nil
}

// String summarizes the spec for logs.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%dB params, groups:", s.Name, s.Params)
	for i := range s.Groups {
		g := &s.Groups[i]
		fmt.Fprintf(&b, " %s/%v×%d", g.Name, g.Kind, g.Layers)
	}
	b.WriteString(")")
	return b.String()
}
