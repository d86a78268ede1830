package core

import (
	"fmt"

	"jenga/internal/arena"
	"jenga/internal/model"
)

// Config configures a Jenga manager.
type Config struct {
	// Spec is the model architecture (required).
	Spec *model.Spec
	// CapacityBytes is the KV-cache memory budget (weights and runtime
	// reserve already subtracted by the caller).
	CapacityBytes int64
	// TokensPerPage is the token-group page granularity (default 16).
	TokensPerPage int
	// EnablePrefixCache keeps released pages as evictable cache and
	// publishes block hashes.
	EnablePrefixCache bool
	// Backed allocates real bytes behind the arena so layout can be
	// verified (tests/examples only).
	Backed bool
	// RequestAware enables §4.3 request-aware small-page placement.
	// Disabled only by the ablation benchmark.
	RequestAware bool
	// PolicyOverride, when non-nil, replaces the default policy derived
	// from a group's Kind (keyed by group name). This is the hook the
	// paper describes for plugging in new attention variants.
	PolicyOverride map[string]Policy
	// HostTierBytes is the host-memory KV tier budget (§8 tiered
	// offload). When at least one large page fits, whole-large-page
	// eviction spills instead of discarding, SwapOut preempts by
	// moving pages to host, and prefix Lookups restore tier-resident
	// blocks at claim time. 0 (or below one large page) disables the
	// tier entirely — allocator behavior is then bit-identical to an
	// untiered manager.
	HostTierBytes int64
}

// Stats counts allocator events since construction.
type Stats struct {
	// Allocs and Frees count small-page transitions.
	Allocs, Frees int64
	// SmallEvictions counts §5.4 step-5 single-page evictions.
	SmallEvictions int64
	// LargeEvictions counts §5.4 step-3 whole-large-page evictions.
	LargeEvictions int64
	// LargeReclaims counts large pages returned by request completion.
	LargeReclaims int64
	// SwapOuts counts large pages spilled to the host tier; SwapIns
	// counts blocks restored from it (0 without a tier).
	SwapOuts, SwapIns int64
	// RestoredTokens counts prefix tokens served from the host tier
	// instead of being recomputed.
	RestoredTokens int64
	// Forks counts Fork calls; CowCopies and CowCopyBytes count the
	// copy-on-write page privatizations (and their copied KV volume)
	// that divergent writes on shared pages triggered.
	Forks        int64
	CowCopies    int64
	CowCopyBytes int64
}

// pageStatus is the three-state life cycle of §5.4.
type pageStatus uint8

const (
	pageEmpty  pageStatus = iota // no valid KV, allocatable
	pageUsed                     // referenced by ≥1 running request
	pageCached                   // valid KV, unreferenced, evictable
)

// page is per-small-page metadata, 56 bytes: the wide fields first, the
// flags packed at the end (TestStructSizes pins it).
type page struct {
	// assoc is the request the page is associated with (§4.3).
	assoc RequestID
	// hash is the block identity once the block is complete; hashed
	// reports the page owns the index entry for that hash, and while it
	// does hash must not change (the index reads its keys from here).
	hash uint64
	// lastAccess and priority order eviction (§5.1).
	lastAccess Tick
	priority   int64
	ref        int32
	// filled is the number of token slots written (≤ tokensPerPage).
	filled int32
	// dead is the number of filled slots whose KV the architecture no
	// longer needs but that share the page with live slots.
	dead int32
	// aprev and anext thread the page onto its request's free stack
	// (assoc.go): the pages above and below it, offStack/noPage.
	aprev, anext int32
	status       pageStatus
	complete     bool
	hashed       bool
	// expired marks cached pages holding KV outside the architecture's
	// dependency horizon (out-of-window tokens). §3.3: such pages are
	// prioritized for eviction over any in-window page, regardless of
	// recency.
	expired bool
}

// group is the per-layer-type allocator + evictor state.
type group struct {
	idx  int
	spec model.KVGroup
	pol  Policy
	view *arena.View

	smallBytes int // small-page size
	slotUnit   int // bytes per token slot across the group's layers
	tpp        int // token slots per page (1 for Mamba)
	ratio      int // small pages per large page
	hclass     int // index of the group's hash class (seqhash.go)

	pages []page // indexed by SmallPageID

	// index maps published block hash → page (prefix cache).
	index pageIndex
	// assocTop is the top of each request's stack of associated empty
	// pages (assoc.go); a request has an entry only while its stack is
	// non-empty. The stacks themselves are threaded through pages.
	assocTop map[RequestID]arena.SmallPageID
	// free holds every empty page in group-owned large pages (strictly
	// maintained): a hierarchical bitmap whose pop is O(1) and always
	// yields the lowest free ID (deterministic §5.4 steps 1/4).
	free freePool
	// evict orders cached pages by (lastAccess, -priority).
	evict evictQueue[pageEntry]

	// counters for Usage (pages in the "used" state only for slots).
	ownedLarge  int
	nUsed       int
	nCached     int
	filledSlots int64
	deadSlots   int64
	// extraRefs counts references beyond the first across all used
	// pages (Σ max(ref-1, 0)); extraRefs × smallBytes is the group's
	// contribution to Usage.SharedBytes.
	extraRefs int64

	// Lookup scratch, reused across calls: nothing returned from Lookup
	// outlives the call, so reuse is safe and makes the lookup
	// allocation-free. All of it is rebuilt in full on every call: the
	// index mutates between lookups, LookupFleet overlays peer presence
	// in place, and what is worth keeping of a sequence's content — its
	// block hashes — belongs to the request (seqHashes).
	// lkProjCount backs the view's ProjCount for a sequence the group
	// stores only part of.
	// A Mamba group's view reads lkCkPresent through ckptAt, built once
	// with the group: entry k is the checkpoint at projected position
	// (k+1) × the interval. lkPeer is LookupFleet's overlay on either
	// table: the holder, plus one, of each entry only a peer supplies.
	lkView      GroupSeqView
	lkProjCount []int
	lkCkPresent []bool
	ckptAt      func(projPos int) bool
	lkPeer      []int32
}

func (g *group) isVision() bool { return g.spec.Kind == model.VisionEmbedding }

// Jenga is the two-level memory manager (§4, §5).
type Jenga struct {
	cfg Config
	geo *model.PageGeometry
	ar  *arena.Arena

	groups []*group
	byName map[string]int

	// large-page state, indexed by LargePageID.
	largeOwner []int32 // owning group index, -1 when free
	cntUsed    []int32 // used small pages per large page
	cntCached  []int32 // cached small pages per large page
	// Incrementally maintained large-page eviction keys (§5.4 step 3):
	// cntExpired counts cached pages holding expired KV, largeTS is the
	// max last-access among cached pages, and largeDirty marks a
	// largeTS whose max-holder left the cached set (recomputed lazily
	// by largeTimestamp). Together they make eviction-key reads O(1)
	// instead of a rescan of every small page in the large page.
	cntExpired []int32
	largeTS    []Tick
	largeDirty []bool

	freeLarge  []arena.LargePageID
	largeEvict evictQueue[largeEntry]

	reqs map[RequestID]*reqState
	// spareReqs is the free list of released requests' states (takeReq);
	// reqSlab the states of the newest slab not handed out yet, reqsBuilt
	// how many ever were.
	spareReqs []*reqState
	reqSlab   []reqState
	reqsBuilt int
	stats     Stats

	// Block hashes of the requests the manager has been shown (seqhash.go):
	// hashClasses lists the distinct ways the groups hash a sequence into
	// blocks; hashes holds a record per request, spareHashes the released
	// ones, hashRecSlab the records of the newest slab not handed out yet
	// and hashRecsBuilt how many ever were; hashSlab is what is left of
	// the newest slab of hash arrays, hashSlabLen that slab's size.
	hashClasses   []hashClass
	hashes        map[RequestID]*seqHashes
	spareHashes   *seqHashes
	hashRecSlab   []seqHashes
	hashRecsBuilt int
	hashSlab      []uint64
	hashSlabLen   int
	// cacheGen counts the changes to what a GPU-only lookup and the
	// admission probe can see: a page entering or leaving the prefix
	// index, an indexed page entering or leaving the used state.
	cacheGen uint64

	// host is the optional second memory tier (nil without one), and
	// pendingH2D/pendingD2H the transfer bytes accumulated since the
	// last DrainTransfers — the engine charges them to its PCIe term.
	host       *hostTier
	pendingH2D int64
	pendingD2H int64
	// pendingCopy is the device-to-device copy volume copy-on-write
	// privatizations accumulated since the last DrainCopyBytes — the
	// engine charges it to the step's HBM copy term.
	pendingCopy int64

	// lkViews is the Lookup scratch for the per-group view list, and
	// identity the ProjCount of every group that stores all of a
	// sequence's tokens: identity[p] = p.
	lkViews  []lookupView
	identity []int
	// Scratch: one tier page's blocks and hashes (spillLarge and
	// ImportPrefix; the tier copies what it keeps), SwapOut's candidate
	// list, claimPrefix's restore queue, the page set ExportPrefix hands
	// out and LookupFleet's fetch list.
	tierBlocks   []hostBlock
	tierHashes   []uint64
	tierLarge    []arena.LargePageID
	claimPending []pendingRestore
	exportBlocks []PageBlock
	exportEnds   []int
	fleetFetch   []FetchBlock
	// checkRefs is CheckInvariants' per-page reference count.
	checkRefs []int32
}

var _ Manager = (*Jenga)(nil)

// DefaultPolicy returns the built-in policy for a group.
func DefaultPolicy(g *model.KVGroup) Policy {
	switch g.Kind {
	case model.SlidingWindow, model.PyramidWindow:
		return WindowPolicy{Window: g.Window}
	case model.Mamba:
		return MambaPolicy{Every: g.Checkpoint()}
	case model.CrossAttention:
		return ImageAtomicPolicy{}
	case model.VisionEmbedding:
		return VisionEmbedPolicy{}
	default:
		return FullPolicy{}
	}
}

// New builds a Jenga manager for the spec with LCM page geometry.
func New(cfg Config) (*Jenga, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("core: nil model spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.TokensPerPage == 0 {
		cfg.TokensPerPage = 16
	}
	if cfg.TokensPerPage < 0 {
		return nil, fmt.Errorf("core: negative tokensPerPage")
	}
	geo, err := cfg.Spec.Geometry(model.LCMPage, cfg.TokensPerPage)
	if err != nil {
		return nil, err
	}
	var ar *arena.Arena
	if cfg.Backed {
		ar, err = arena.NewBacked(cfg.CapacityBytes, geo.LargePageBytes)
	} else {
		ar, err = arena.New(cfg.CapacityBytes, geo.LargePageBytes)
	}
	if err != nil {
		return nil, err
	}
	if ar.NumLargePages() == 0 {
		return nil, fmt.Errorf("core: capacity %d below one large page (%d bytes)",
			cfg.CapacityBytes, geo.LargePageBytes)
	}

	m := &Jenga{
		cfg:        cfg,
		geo:        geo,
		ar:         ar,
		byName:     make(map[string]int, len(cfg.Spec.Groups)),
		largeOwner: make([]int32, ar.NumLargePages()),
		cntUsed:    make([]int32, ar.NumLargePages()),
		cntCached:  make([]int32, ar.NumLargePages()),
		cntExpired: make([]int32, ar.NumLargePages()),
		largeTS:    make([]Tick, ar.NumLargePages()),
		largeDirty: make([]bool, ar.NumLargePages()),
		reqs:       make(map[RequestID]*reqState),
		hashes:     make(map[RequestID]*seqHashes, 256),
		cacheGen:   1,
	}
	for i := range m.largeOwner {
		m.largeOwner[i] = -1
	}
	m.largeEvict.initSlots(ar.NumLargePages(), largeEntry.slot)
	// Free list in reverse so allocation proceeds from page 0 upward.
	m.freeLarge = make([]arena.LargePageID, 0, ar.NumLargePages())
	for i := ar.NumLargePages() - 1; i >= 0; i-- {
		m.freeLarge = append(m.freeLarge, arena.LargePageID(i))
	}

	for i := range cfg.Spec.Groups {
		gs := cfg.Spec.Groups[i]
		tpp := cfg.TokensPerPage
		if gs.Kind == model.Mamba {
			tpp = 1
		}
		small := geo.SmallPageBytes[gs.Name]
		view, err := ar.View(gs.Name, small, gs.Layers, tpp)
		if err != nil {
			return nil, err
		}
		pol := DefaultPolicy(&gs)
		if o, ok := cfg.PolicyOverride[gs.Name]; ok && o != nil {
			pol = o
		}
		g := &group{
			idx:        i,
			spec:       gs,
			pol:        pol,
			view:       view,
			smallBytes: small,
			slotUnit:   small / tpp,
			tpp:        tpp,
			ratio:      geo.Ratio[gs.Name],
			hclass:     m.hashClassOf(&gs, tpp),
			pages:      make([]page, ar.NumLargePages()*geo.Ratio[gs.Name]),
			assocTop:   make(map[RequestID]arena.SmallPageID),
		}
		for p := range g.pages {
			g.pages[p].aprev, g.pages[p].anext = offStack, noPage
		}
		g.index.init(g.pages)
		g.free.init(len(g.pages))
		g.evict.initSlots(len(g.pages), pageEntry.slot)
		if gs.Kind == model.Mamba {
			every := gs.Checkpoint()
			g.ckptAt = func(projPos int) bool {
				k := projPos/every - 1
				return projPos%every == 0 && k >= 0 && k < len(g.lkCkPresent) && g.lkCkPresent[k]
			}
		}
		m.groups = append(m.groups, g)
		m.byName[gs.Name] = i
	}
	if cfg.HostTierBytes >= int64(geo.LargePageBytes) {
		names := make([]string, len(m.groups))
		for i, g := range m.groups {
			names[i] = g.spec.Name
		}
		m.host = newHostTier(cfg.HostTierBytes, geo.LargePageBytes, names)
	}
	return m, nil
}

// Capacity implements Manager.
func (m *Jenga) Capacity() int64 { return m.ar.UsableBytes() }

// SupportsVisionCache implements Manager: true when the model declares
// a vision-embedding group.
func (m *Jenga) SupportsVisionCache() bool {
	for _, g := range m.groups {
		if g.isVision() {
			return true
		}
	}
	return false
}

// Geometry returns the LCM page geometry in use.
func (m *Jenga) Geometry() *model.PageGeometry { return m.geo }

// Stats returns allocator event counters.
func (m *Jenga) Stats() Stats { return m.stats }

// Arena exposes the underlying arena (for layout verification in tests).
func (m *Jenga) Arena() *arena.Arena { return m.ar }

// GroupView returns the arena view of a group (layout tests).
func (m *Jenga) GroupView(name string) (*arena.View, error) {
	gi, ok := m.byName[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown group %q", name)
	}
	return m.groups[gi].view, nil
}

// usage folds the group's aggregate counters into its Usage slice.
func (g *group) usage() GroupUsage {
	live := g.filledSlots - g.deadSlots
	tailEmpty := int64(g.nUsed)*int64(g.tpp) - g.filledSlots
	ownedEmpty := int64(g.ownedLarge*g.ratio - g.nUsed - g.nCached)
	return GroupUsage{
		Used:   live * int64(g.slotUnit),
		Cached: int64(g.nCached) * int64(g.smallBytes),
		Wasted: g.deadSlots*int64(g.slotUnit) +
			tailEmpty*int64(g.slotUnit) +
			ownedEmpty*int64(g.smallBytes),
	}
}

// Usage implements Manager. Used + Cached + Wasted + Free == Capacity.
func (m *Jenga) Usage() Usage {
	u := m.UsageTotals()
	u.PerGroup = make(map[string]GroupUsage, len(m.groups))
	for _, g := range m.groups {
		u.PerGroup[g.spec.Name] = g.usage()
	}
	return u
}

// UsageTotals implements Manager: the aggregate snapshot without the
// PerGroup map. All inputs are counters maintained on page transitions,
// so the call is allocation-free and O(groups) — the form the engine's
// admission check and KV-utilization sampling use every step.
func (m *Jenga) UsageTotals() Usage {
	var u Usage
	var allocatedLarge int64
	for _, g := range m.groups {
		gu := g.usage()
		u.Used += gu.Used
		u.Cached += gu.Cached
		u.Wasted += gu.Wasted
		u.SharedBytes += g.extraRefs * int64(g.smallBytes)
		allocatedLarge += int64(g.ownedLarge)
	}
	u.Free = m.Capacity() - allocatedLarge*int64(m.geo.LargePageBytes)
	if m.host != nil {
		u.HostUsed, u.HostCapacity = m.host.used, m.host.capacity
	}
	return u
}

// largeOf returns the large page containing small page p of group g.
func (m *Jenga) largeOf(g *group, p arena.SmallPageID) arena.LargePageID {
	return g.view.LargeOf(p)
}
