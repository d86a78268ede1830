package core

import "jenga/internal/arena"

// Offload advice (§8): systems that spill KV to host memory or disk
// (CachedAttention, Mooncake) need a fixed-size transfer granularity
// and an ordering of what to spill first. Jenga's large pages are the
// natural granularity — uniform across layer types — and the eviction
// order is the offload order: what LRU would discard next is what an
// offloader should copy out first. The built-in host tier
// (hosttier.go) consumes exactly this order through the eviction
// path: evictLargeLRU copies the victim page out before discarding.

// OffloadHint describes one large page an offloader should spill, in
// priority order (index 0 spills first).
type OffloadHint struct {
	// LargePage is the page to spill (LargePageBytes() bytes at offset
	// LargePage × LargePageBytes in the arena).
	LargePage arena.LargePageID
	// Group is the owning layer type.
	Group string
	// LastAccess is the page's eviction key (oldest spill first).
	LastAccess Tick
	// Expired marks pages holding only out-of-horizon KV: they are the
	// cheapest to lose and spill before any live page (§3.3 ordering).
	Expired bool
}

// hintLess is the offload priority: expired first, then LRU, then
// lowest page ID — a total order, so the selection is deterministic.
func hintLess(a, b OffloadHint) bool {
	if a.Expired != b.Expired {
		return a.Expired
	}
	if a.LastAccess != b.LastAccess {
		return a.LastAccess < b.LastAccess
	}
	return a.LargePage < b.LargePage
}

// worstFirst reverses hintLess, so an evictQueue of them keeps the
// *worst* kept hint on top: top-k selection pops it when a better
// candidate appears. This keeps a bounded OffloadOrder at O(L log max)
// instead of sorting every evictable page for any max.
type worstFirst OffloadHint

func (a worstFirst) before(b worstFirst) bool { return hintLess(OffloadHint(b), OffloadHint(a)) }

// OffloadOrder returns up to max evictable large pages in the order the
// evictor would discard them — expired pages first, then LRU. An
// offloading layer copies pages out in this order so that when eviction
// strikes, the discarded bytes already live in the next memory tier.
// The call is read-only: nothing is evicted. max ≤ 0 returns every
// evictable page.
//
// Pages pinned by an in-flight commit are excluded: any large page
// with a used small page on it is referenced by a live reservation
// whose commit may still be in flight, so spilling it could race the
// commit's writes. Only fully evictable pages (no used pages, ≥ 1
// cached page) are advised — the same rule the evictor and the host
// tier's spill path enforce.
func (m *Jenga) OffloadOrder(max int) []OffloadHint {
	if max <= 0 || max > m.ar.NumLargePages() {
		max = m.ar.NumLargePages()
	}
	var top evictQueue[worstFirst]
	for L := 0; L < m.ar.NumLargePages(); L++ {
		// largeTimestamp is the commit-pin gate: it rejects pages with
		// used (reservation-held) small pages and pages with nothing
		// cached.
		ts, expired, ok := m.largeTimestamp(arena.LargePageID(L))
		if !ok {
			continue
		}
		h := OffloadHint{
			LargePage:  arena.LargePageID(L),
			Group:      m.groups[m.largeOwner[L]].spec.Name,
			LastAccess: ts,
			Expired:    expired,
		}
		if top.len() == max {
			if !hintLess(h, OffloadHint(top.h[0])) {
				continue
			}
			top.pop()
		}
		top.push(worstFirst(h))
	}
	// Pops come worst first, so fill from the back.
	hints := make([]OffloadHint, top.len())
	for i := len(hints) - 1; i >= 0; i-- {
		hints[i] = OffloadHint(top.pop())
	}
	return hints
}

// OffloadGranularity returns the fixed transfer size an offloader
// should use: one large page, compatible across every layer type.
func (m *Jenga) OffloadGranularity() int { return m.geo.LargePageBytes }
