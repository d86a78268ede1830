package core

// Per-layer-type prefix-caching customization (§5). The paper's Fig. 9a
// interface exposes update_last_access, set_prefix_length and
// get_possible_prefix; this file is the Go rendering of that interface:
//
//   - AccessedFrom is update_last_access: it names the projected-token
//     range the next-token computation reads, so only those pages get
//     fresh timestamps (balanced eviction, §5.1).
//   - BlockPriority is set_prefix_length: the tie-break value pages get
//     for aligned eviction (§5.1) — higher values are evicted first
//     among equal last-access times.
//   - ValidPrefix is the membership test of get_possible_prefix's set:
//     whether a model-wide prefix of p tokens is a valid hit for this
//     layer type (§5.2).
//   - FreeBelow is the dependency horizon: projected positions below it
//     hold KV the architecture will never read again and can be freed
//     or demoted to evictable cache.
//
// Core reads a group's Kind once, at New (its default policy, whether
// it is a Mamba group or the vision cache); all else comes from here.

import "slices"

// Policy customizes prefix caching and eviction for one layer type.
type Policy interface {
	// AccessedFrom returns the lowest projected position whose KV the
	// computation of the next token reads, given projLen committed
	// projected tokens. Pages in [AccessedFrom, projLen) carry the
	// current step's last-access time.
	AccessedFrom(projLen int) int
	// FreeBelow returns the projected position below which KV is dead
	// once projLen projected tokens are committed.
	FreeBelow(projLen int) int
	// ValidPrefix reports whether a model-wide prefix of p full-sequence
	// tokens is a valid cache hit for this layer type.
	//
	// Lookup asks it at falling p. When v.RangeCached failures reject p,
	// every shorter prefix whose projection still reaches the highest
	// block they found absent is skipped as rejected too. So a policy
	// judging by RangeCached asks, at a shorter prefix, ranges that
	// start no later and end at the projected prefix length or at a
	// fixed bound below it, and rejects whenever they stay uncached:
	// [0,pl), [pl−W,pl), Mamba's [pl−1,pl) and [0,min(S,pl)) all
	// qualify. A rejection with no failed range rules out p alone.
	ValidPrefix(v *GroupSeqView, p int) bool
	// BlockPriority returns the eviction tie-break value for block b.
	// runChain is the hash-chain value at the start of the current
	// image run (used by image-atomic policies; zero otherwise).
	BlockPriority(b int, runChain uint64) int64
}

// KeepAlive is an optional Policy extension for layer types whose live
// set is not a contiguous suffix of the prefix. Pages covering
// projected positions below KeptBelow stay held (never demoted), and
// are charged at admission, even when they fall below FreeBelow — e.g.
// StreamingLLM-style attention sinks, which always read the first few
// tokens plus a sliding window.
type KeepAlive interface {
	// KeptBelow returns the projected position bound of the
	// always-live head region given projLen committed tokens.
	KeptBelow(projLen int) int
}

// GroupSeqView is a read-only projection of one sequence onto one
// group, built during Lookup. Policies use it to evaluate hit rules;
// RangeCached notes its misses in it for Lookup's skip.
type GroupSeqView struct {
	// ProjCount[p] is the number of projected tokens among the first p
	// full-sequence tokens (length fullLen+1).
	ProjCount []int
	// BlockTokens is the projected tokens per entry of the group's page
	// table: its tokens per page, or a Mamba group's checkpoint interval.
	BlockTokens int
	// Present[k] reports whether entry k — complete block k, or the Mamba
	// checkpoint after (k+1) × BlockTokens projected tokens — is in the
	// prefix cache (live page with a published hash).
	Present []bool
	// nextAbsent[k] is the lowest absent block at or after k,
	// len(Present) when every block from k on is present.
	nextAbsent []int
	// miss is the highest block a failed RangeCached found absent since
	// Lookup last reset it to -1 (the lowest absent block of each failed
	// range).
	miss int
}

// buildRuns fills nextAbsent from Present, reusing its capacity (views
// built into per-group Lookup scratch rebuild it on every call).
func (v *GroupSeqView) buildRuns() {
	n := len(v.Present)
	if cap(v.nextAbsent) >= n {
		v.nextAbsent = v.nextAbsent[:n]
	} else {
		v.nextAbsent = make([]int, n)
	}
	next := n
	for k := n - 1; k >= 0; k-- {
		if !v.Present[k] {
			next = k
		}
		v.nextAbsent[k] = next
	}
}

// RangeCached reports whether projected tokens [lo, hi) are all cached,
// at block granularity (tokens in incomplete tail blocks never count).
// A miss records the range's lowest absent block for Lookup's skip.
func (v *GroupSeqView) RangeCached(lo, hi int) bool {
	if hi <= lo {
		return true
	}
	first, last := lo/v.BlockTokens, (hi-1)/v.BlockTokens
	absent := first // blocks past the last complete one are never cached
	if first < len(v.nextAbsent) {
		absent = v.nextAbsent[first]
	}
	if absent > last {
		return true
	}
	v.miss = max(v.miss, absent)
	return false
}

// below returns the next Lookup candidate after the view's policy
// rejected prefix p: the longest shorter prefix whose projection ends
// at or before the block the rejection recorded absent, which every
// prefix in between still reaches (Policy.ValidPrefix's contract), or
// p−1 when the rejection recorded none.
func (v *GroupSeqView) below(p int) int {
	if v.miss < 0 {
		return p - 1
	}
	i, _ := slices.BinarySearch(v.ProjCount[:p], v.miss*v.BlockTokens+1)
	return i - 1
}

// FullPolicy is classic self-attention: every prefix token is read
// every step, nothing is ever dead, and a hit needs the whole prefix.
type FullPolicy struct{}

// AccessedFrom implements Policy: all prefix KV is read each step.
func (FullPolicy) AccessedFrom(int) int { return 0 }

// FreeBelow implements Policy: full attention never frees prefix KV.
func (FullPolicy) FreeBelow(int) int { return 0 }

// ValidPrefix implements Policy: all projected tokens before p must be
// cached.
func (FullPolicy) ValidPrefix(v *GroupSeqView, p int) bool {
	return v.RangeCached(0, v.ProjCount[p])
}

// BlockPriority implements Policy: later blocks are evicted first.
func (FullPolicy) BlockPriority(b int, _ uint64) int64 { return int64(b) }

// WindowPolicy is sliding-window attention (and, approximately,
// PyramidKV token budgets): only the last Window projected tokens are
// read; earlier KV is dead.
type WindowPolicy struct {
	// Window is the attention window in projected tokens.
	Window int
}

// AccessedFrom implements Policy (Fig. 9b): only tokens inside the
// window are accessed.
func (p WindowPolicy) AccessedFrom(projLen int) int { return p.FreeBelow(projLen) }

// FreeBelow implements Policy: KV outside the window is dead.
func (p WindowPolicy) FreeBelow(projLen int) int { return max(projLen-p.Window, 0) }

// ValidPrefix implements Policy: a prefix hits if the window-suffix of
// the prefix is cached, even when earlier tokens are evicted (§5.2's
// [token1̶ token2 token3] example).
func (p WindowPolicy) ValidPrefix(v *GroupSeqView, prefix int) bool {
	pl := v.ProjCount[prefix]
	return v.RangeCached(p.FreeBelow(pl), pl)
}

// BlockPriority implements Policy.
func (WindowPolicy) BlockPriority(b int, _ uint64) int64 { return int64(b) }

// MambaPolicy manages recurrent-state layers: the manager stores one
// working state per sequence plus checkpoints every Every tokens
// (§5.3). Hits land only on checkpoint positions.
type MambaPolicy struct {
	// Every is the checkpoint interval in projected tokens.
	Every int
}

// AccessedFrom implements Policy: only the latest state is touched.
func (MambaPolicy) AccessedFrom(projLen int) int {
	if projLen == 0 {
		return 0
	}
	return projLen - 1
}

// FreeBelow implements Policy: per-token positions hold no KV; the
// manager tracks state pages separately.
func (MambaPolicy) FreeBelow(projLen int) int { return projLen }

// ValidPrefix implements Policy: p hits iff its projected length is a
// checkpoint multiple whose state is cached (or zero). The view's entry
// for the checkpoint at pl is the one holding projected token pl−1.
func (m MambaPolicy) ValidPrefix(v *GroupSeqView, p int) bool {
	pl := v.ProjCount[p]
	return pl == 0 || (m.Every > 0 && pl%m.Every == 0 && v.RangeCached(pl-1, pl))
}

// BlockPriority implements Policy: later checkpoints are evicted first.
func (MambaPolicy) BlockPriority(b int, _ uint64) int64 { return int64(b) }

// ImageAtomicPolicy is for cross-attention KV and vision embeddings:
// evicting one image token forces re-encoding the whole image, so all
// blocks of one image share a pseudo-random priority — the image with
// the highest value is evicted first, wholesale (§5.3).
type ImageAtomicPolicy struct{}

// AccessedFrom implements Policy: cross-attention reads all image KV.
func (ImageAtomicPolicy) AccessedFrom(int) int { return 0 }

// FreeBelow implements Policy: image KV stays live for the request.
func (ImageAtomicPolicy) FreeBelow(int) int { return 0 }

// ValidPrefix implements Policy: like full attention over image tokens.
func (ImageAtomicPolicy) ValidPrefix(v *GroupSeqView, p int) bool {
	return v.RangeCached(0, v.ProjCount[p])
}

// BlockPriority implements Policy: a deterministic pseudo-random value
// derived from the hash chain at the image's first token, identical
// across layer types and requests for the same image — so all its
// pages align (§5.1's set_prefix_length with randomized values).
func (ImageAtomicPolicy) BlockPriority(_ int, runChain uint64) int64 {
	x := runChain * 0x2545F4914F6CDD1D
	x ^= x >> 32
	return int64(x & 0x7FFFFFFFFFFFFFFF)
}

// VisionEmbedPolicy manages the vision-embedding cache. It never gates
// model-wide KV hits (embeddings are inputs to prefill, not KV), and
// uses image-atomic eviction.
type VisionEmbedPolicy struct {
	ImageAtomicPolicy
}

// ValidPrefix implements Policy: the embedding cache never blocks a KV
// prefix hit; its own hits are queried via Manager-level image lookup.
func (VisionEmbedPolicy) ValidPrefix(*GroupSeqView, int) bool { return true }
