package core

import (
	"cmp"
	"fmt"
	"math"
	"strings"

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
	// TokensPerPage is the token-group page granularity (default 16,
	// at most 255).
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

// page is per-small-page metadata, 16 bytes: the wide fields first,
// the byte-wide counters and flags packed at the end (TestStructSizes
// pins it). The page's block hash is kept beside it, in group.hash, its
// eviction priority, where something reads it, in group.prio, and its
// free-stack link, where the group keeps stacks, in group.links.
type page struct {
	// lastAccess orders eviction (§5.1).
	lastAccess Tick
	ref        int32
	// filled is the number of token slots written (≤ tokensPerPage,
	// which Config.Validate bounds by the field's range).
	filled uint8
	// dead is the number of filled slots whose KV the architecture no
	// longer needs but that share the page with live slots.
	dead   uint8
	status pageStatus
	flags  pageFlags
}

// pageFlags are a page's one-bit states, read and written through
// page.has and page.set.
type pageFlags uint8

const (
	// pageComplete marks a page whose block is fully written.
	pageComplete pageFlags = 1 << iota
	// pageHashed reports the page owns the prefix index entry for its
	// hash (group.hash), which must not change while it does.
	pageHashed
	// pageExpired marks cached pages holding KV outside the
	// architecture's dependency horizon (out-of-window tokens). §3.3:
	// such pages are prioritized for eviction over any in-window page,
	// regardless of recency.
	pageExpired
)

// has reports whether every flag in f is set.
func (pg *page) has(f pageFlags) bool { return pg.flags&f == f }

// set sets the flags in f when on, and clears them otherwise.
func (pg *page) set(f pageFlags, on bool) {
	if on {
		pg.flags |= f
	} else {
		pg.flags &^= f
	}
}

// assocLink is a small page's place in the request-aware free stacks
// (assoc.go), 16 bytes: the request the page is associated with (§4.3),
// and the pages above and below it on that request's stack
// (offStack/noPage).
type assocLink struct {
	req        RequestID
	prev, next int32
}

// largePage is one large page's allocator state, 16 bytes
// (TestStructSizes pins it): the small pages of its owner's that are
// used, cached, and cached with expired KV, and its §5.4 step-3
// eviction key. ts is the max last-access among the cached pages, and
// dirty marks a ts whose max-holder left the cached set (recomputed
// lazily by largeTimestamp); together they make eviction-key reads
// O(1) instead of a rescan of every small page in the large page.
// Config.Validate bounds the ratio by used's range and the group count
// by owner's.
type largePage struct {
	// ts is the eviction key while the page is owned. A returned free
	// page caches nothing, and its ts links the returned stack instead
	// (takeFreshLarge): the page below it plus one, 0 at the bottom.
	ts                    Tick
	used, cached, expired uint16
	owner                 int8 // owning group index, -1 when free
	dirty                 bool
}

// group is the per-layer-type allocator + evictor state.
type group struct {
	idx  int
	spec model.KVGroup
	pol  Policy
	// keep is pol's KeepAlive extension, nil when it has none: resolved
	// once here, since an interface assertion on the hot path may grow
	// the runtime's type-assertion cache (a heap allocation) at random.
	keep KeepAlive
	view *arena.View

	smallBytes int // small-page size
	slotUnit   int // bytes per token slot across the group's layers
	tpp        int // token slots per page (1 for Mamba)
	ratio      int // small pages per large page
	hclass     int // index of the group's hash class (seqhash.go)
	// stride is the projected tokens per page-table entry, its hash
	// class's stride: tpp, or a Mamba group's checkpoint interval.
	stride int

	pages []page // indexed by SmallPageID
	// hash is each page's block identity once its block is complete —
	// apart from the page, so the prefix index probes a dense array of
	// its keys.
	hash []uint64
	// prio is each page's §5.1 tie-break value (Policy.BlockPriority),
	// set where its block is completed. Only step 5's queue
	// (smallQueued) and the host tier read it, so only a group with the
	// one or a manager with the other keeps it; elsewhere it is nil and
	// no priority is asked for (setPriority).
	prio []int64

	// index maps published block hash → page (prefix cache).
	index pageIndex[arena.SmallPageID]
	// links threads the request-aware free stacks (assoc.go), one entry
	// per page, and assocTop is the top of each request's stack; a
	// request has an entry only while its stack is non-empty. Only a
	// group that places pages by request with more than one small page
	// per large page keeps links (stacked), and any other's assocTop
	// stays empty: a ratio-1 page that empties empties its large page,
	// which is reclaimed at once.
	links    []assocLink
	assocTop map[RequestID]arena.SmallPageID
	// free holds every empty page in group-owned large pages (strictly
	// maintained): a hierarchical bitmap whose pop is O(1) and always
	// yields the lowest free ID (deterministic §5.4 steps 1/4).
	free freePool
	// evict orders cached pages by (lastAccess, -prio) for §5.4 step
	// 5; only a group with more than one small page per large page has
	// one (smallQueued).
	evict evictQueue[pageEntry, pageTie]

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
	// stores only part of, and lkPeer is LookupFleet's overlay on the
	// view's Present: the holder, plus one, of each entry only a peer
	// supplies.
	lkView      GroupSeqView
	lkProjCount []int
	lkPeer      []int32
}

func (g *group) isVision() bool { return g.spec.Kind == model.VisionEmbedding }

// smallQueued reports whether the group keeps a small-page eviction
// queue. A ratio-1 group does not need one: its small page is its large
// page, so a cached page's large page is evictable — it holds no used
// page — and queued at the page's own key (pageRelease and claimMamba
// push it; CheckInvariants asserts it). Step 3 pops the large-page
// queue until it finds a valid entry, so while any ratio-1 group holds
// a cached page step 3 evicts something and step 5 is not reached: a
// ratio-1 group reaches step 5 only with nothing cached, and its empty
// queue reports no victim, as a full one would have.
func (g *group) smallQueued() bool { return g.ratio > 1 }

// stacked reports whether the group keeps request-aware free stacks.
func (g *group) stacked() bool { return g.links != nil }

// Jenga is the two-level memory manager (§4, §5).
type Jenga struct {
	cfg Config
	geo *model.PageGeometry
	ar  *arena.Arena

	groups []*group

	// large is each large page's state, indexed by LargePageID. The
	// free large pages are the IDs from largeFresh up, never handed out,
	// and the returned stack from largeTop (-1: empty), threaded
	// through the returned pages' records; takeFreshLarge pops the
	// stack before it hands out largeFresh, so pages go out 0, 1, 2, …
	// under every returned one.
	large      []largePage
	largeFresh int32
	largeTop   int32
	largeEvict evictQueue[largeEntry, largeSlot]

	// reqs holds the state of every request the manager has been shown
	// and not released (lifecycle.go); spareReqs is the free list of
	// released requests' states (takeReq), reqSlab the states of the
	// newest slab not handed out yet, reqsBuilt how many ever were.
	reqs      map[RequestID]*reqState
	spareReqs []*reqState
	reqSlab   []reqState
	reqsBuilt int
	stats     Stats

	// hashClasses lists the distinct ways the groups hash a sequence into
	// blocks (seqhash.go); hashSlab and tableSlab are where requests' hash
	// arrays and page tables are cut from.
	hashClasses []hashClass
	hashSlab    arraySlab[uint64]
	tableSlab   arraySlab[pageRef]
	// heads holds the memo of every Shared head a live record continues,
	// spareHeads the list of dropped ones and headSlab the newest slab's
	// unused ones (seqhash.go); a head shorter than headMin tokens gets
	// none.
	heads      map[headKey]*headMemo
	spareHeads *headMemo
	headSlab   []headMemo
	headMin    int
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
	// claimPending is claimPrefix's restore queue (the tier path's other
	// scratch is the tier's own).
	claimPending []pendingRestore
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

// ConfigError is the one typed error a constructor returns for a
// config it cannot build from: which config ("core.Config",
// "engine.Config", "cluster.Config"), the field at fault, and why.
// Config.Validate reports it here; engine.New, cluster.New and
// cluster.NewRouter report it for their own configs.
type ConfigError struct {
	Config string
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	pkg, typ, _ := strings.Cut(e.Config, ".")
	return pkg + ": " + typ + "." + e.Field + ": " + e.Reason
}

// Validate reports the first field New would refuse, as a *ConfigError.
// New calls it first.
func (c Config) Validate() error {
	if c.Spec == nil {
		return &ConfigError{"core.Config", "Spec", "nil model spec"}
	}
	if err := c.Spec.Validate(); err != nil {
		return &ConfigError{"core.Config", "Spec", err.Error()}
	}
	// A large page's record names its owner in an int8 and counts its
	// small pages in uint16s (largePage).
	if n := len(c.Spec.Groups); n > math.MaxInt8 {
		return &ConfigError{"core.Config", "Spec", fmt.Sprintf("%d groups, more than a large page's owner field holds (%d)", n, math.MaxInt8)}
	}
	if c.TokensPerPage < 0 {
		return &ConfigError{"core.Config", "TokensPerPage", fmt.Sprintf("%d is negative", c.TokensPerPage)}
	}
	// A page counts its filled and dead slots in uint8s (page).
	if c.TokensPerPage > math.MaxUint8 {
		return &ConfigError{"core.Config", "TokensPerPage", fmt.Sprintf("%d is more than a page's slot counters hold (%d)", c.TokensPerPage, math.MaxUint8)}
	}
	geo, err := c.Spec.Geometry(cmp.Or(c.TokensPerPage, 16))
	if err != nil {
		return &ConfigError{"core.Config", "Spec", err.Error()}
	}
	for _, g := range c.Spec.Groups {
		if r := geo.Ratio[g.Name]; r > math.MaxUint16 {
			return &ConfigError{"core.Config", "Spec", fmt.Sprintf("group %s has %d small pages per large page, more than a large page's counters hold (%d)", g.Name, r, math.MaxUint16)}
		}
	}
	if large := int64(geo.LargePageBytes); c.CapacityBytes < large {
		return &ConfigError{"core.Config", "CapacityBytes", fmt.Sprintf("%d is below one large page (%d bytes)", c.CapacityBytes, large)}
	}
	if c.HostTierBytes < 0 {
		return &ConfigError{"core.Config", "HostTierBytes", fmt.Sprintf("%d is negative", c.HostTierBytes)}
	}
	// The tier is sized up front: its slots × the largest small-page
	// ratio blocks must have int32 IDs.
	stride := 0
	for _, g := range c.Spec.Groups {
		stride = max(stride, geo.Ratio[g.Name])
	}
	if slots := tierSlots(c.HostTierBytes, geo.LargePageBytes); slots > math.MaxInt32/int64(stride) {
		return &ConfigError{"core.Config", "HostTierBytes", fmt.Sprintf("%d pages of %d blocks overflow the tier's int32 block IDs", slots, stride)}
	}
	return nil
}

// New builds a Jenga manager for the spec with LCM page geometry, after
// validating the config.
func New(cfg Config) (*Jenga, error) { return newManager(cfg, nil) }

// newManager is New, its host tier — when the config has one — host
// emptied in place where host is not nil: CrashReset's restart keeps
// the dead process's tier tables, sized for the same budget, instead
// of allocating a second set while the first is still referenced.
func newManager(cfg Config, host *hostTier) (*Jenga, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.TokensPerPage = cmp.Or(cfg.TokensPerPage, 16)
	geo, err := cfg.Spec.Geometry(cfg.TokensPerPage)
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
		return nil, &ConfigError{"core.Config", "CapacityBytes", err.Error()}
	}

	m := &Jenga{
		cfg:      cfg,
		geo:      geo,
		ar:       ar,
		large:    make([]largePage, ar.NumLargePages()),
		largeTop: -1,
		reqs:     make(map[RequestID]*reqState, 256),
		heads:    make(map[headKey]*headMemo, headSlabMemos),
		cacheGen: 1,
	}
	for i := range m.large {
		m.large[i].owner = -1
	}
	m.largeEvict.initSlots(ar.NumLargePages(), 0)

	tiered := cfg.HostTierBytes >= int64(geo.LargePageBytes)
	for i := range cfg.Spec.Groups {
		gs := cfg.Spec.Groups[i]
		tpp, stride := cfg.TokensPerPage, cfg.TokensPerPage
		if gs.Kind == model.Mamba {
			tpp, stride = 1, gs.Checkpoint()
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
			hclass:     m.hashClassOf(&gs, stride),
			stride:     stride,
			pages:      make([]page, ar.NumLargePages()*geo.Ratio[gs.Name]),
			assocTop:   make(map[RequestID]arena.SmallPageID),
		}
		g.keep, _ = pol.(KeepAlive)
		if cfg.RequestAware && g.ratio > 1 {
			g.links = make([]assocLink, len(g.pages))
			for p := range g.links {
				g.links[p].prev, g.links[p].next = offStack, noPage
			}
		}
		g.hash = make([]uint64, len(g.pages))
		if g.smallQueued() || tiered {
			g.prio = make([]int64, len(g.pages))
		}
		g.index.init(g.hash, len(g.pages))
		g.free.init(len(g.pages))
		if g.smallQueued() {
			g.evict.initSlots(len(g.pages), 0)
		}
		m.groups = append(m.groups, g)
	}
	m.headMin = math.MaxInt
	for _, c := range m.hashClasses {
		m.headMin = min(m.headMin, c.stride)
	}
	if cfg.EnablePrefixCache {
		m.growHeadSlab()
	}
	switch {
	case tiered && host != nil:
		host.clear()
		m.host = host
	case tiered:
		names := make([]string, len(m.groups))
		ratios := make([]int, len(m.groups))
		for i, g := range m.groups {
			names[i], ratios[i] = g.spec.Name, g.ratio
		}
		m.host = newHostTier(cfg.HostTierBytes, geo.LargePageBytes, names, ratios)
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

// groupIndex returns the index of the group called name, -1 when there
// is none: a scan of the few groups, so no string is hashed.
func (m *Jenga) groupIndex(name string) int {
	for i, g := range m.groups {
		if g.spec.Name == name {
			return i
		}
	}
	return -1
}
