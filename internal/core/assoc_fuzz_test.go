package core

import (
	"slices"
	"testing"

	"jenga/internal/arena"
)

// lazyAssoc is the reference: the per-request lists the free stacks
// replaced, as they were — every page that becomes associated-free is
// appended to its request's list, nothing is removed when it stops
// being so, and the pop validates entries from the end. sweep and the
// drop of an exhausted list are the old bound on the map; neither may
// change what a pop returns.
type lazyAssoc struct {
	m         *Jenga
	g         *group
	freeByReq map[RequestID][]arena.SmallPageID
}

func (l *lazyAssoc) valid(id arena.SmallPageID, req RequestID) bool {
	return l.g.pages[id].status == pageEmpty && l.g.links[id].req == req &&
		l.m.large[l.g.view.LargeOf(id)].owner == int8(l.g.idx) && l.g.free.has(id)
}

func (l *lazyAssoc) pop(req RequestID) (arena.SmallPageID, bool) {
	lst := l.freeByReq[req]
	for len(lst) > 0 {
		id := lst[len(lst)-1]
		lst = lst[:len(lst)-1]
		if l.valid(id, req) {
			l.freeByReq[req] = lst
			return id, true
		}
	}
	delete(l.freeByReq, req)
	return 0, false
}

// freed is pageToEmpty's append, with the sweep that followed it.
func (l *lazyAssoc) freed(req RequestID, id arena.SmallPageID, live int) {
	l.freeByReq[req] = append(l.freeByReq[req], id)
	if len(l.freeByReq) > 2*(live+l.g.free.len()) {
		for req, lst := range l.freeByReq {
			if !slices.ContainsFunc(lst, func(id arena.SmallPageID) bool { return l.valid(id, req) }) {
				delete(l.freeByReq, req)
			}
		}
	}
}

// carved is takeFreshLarge's append: pages n-1…1 of the large page.
func (l *lazyAssoc) carved(req RequestID, first arena.SmallPageID, n int) {
	for i := n - 1; i > 0; i-- {
		l.freeByReq[req] = append(l.freeByReq[req], first+arena.SmallPageID(i))
	}
}

// FuzzAssocStacks drives a real manager at page level — allocSmall,
// pageRelease, the stack drop of a Release — with one byte-coded op
// stream, mirrors every transition of the kv group that used to append
// to a lazy list into the reference, and requires the stacks and the
// lists to name the same page before every allocation's §5.4 step 1.
// Eight request IDs share four large pages: four kv pages each, or one
// pad page (churnSpec), so a stream reaches carves, frees into a
// partial large page, reclaims, step-4 takes of another request's page,
// whole-large-page and single-page evictions of cached pages (whose
// frees land on long-gone requests' stacks), releases, requests that
// come back under a released ID, and a ratio-1 group beside the
// stacked one — keeping no stack, taking and returning whole large
// pages, evicting the kv group's and evicted by it. Each byte is
// op<<5 | arg: ops 0-3 allocate a kv page for request arg%8, 7 a pad
// page, 4 and 5 free that request's oldest kv page (arg bit 4: pad
// page; 5: into the cache), 6 releases the request (arg bit 3: into
// the cache).
func FuzzAssocStacks(f *testing.F) {
	const (
		alloc = 0 << 5
		free  = 4 << 5
		cache = 5 << 5
		rel   = 6 << 5
		pad   = 7 << 5
		onPad = 16
	)
	f.Add([]byte{alloc | 1, alloc | 1, free | 1, alloc | 1})
	// A duplicate entry: request 0's page is freed (listed under 0),
	// taken through step 4 by request 4 once every large page is carved,
	// freed again (listed under 4), while 0's older entry still sits in
	// its list — and 0 comes back for it.
	f.Add([]byte{alloc | 0, alloc | 0, alloc | 1, alloc | 2, alloc | 3, free | 0, alloc | 4, free | 4, alloc | 0, alloc | 4, alloc | 0})
	// A re-carve to the same request: 2's only large page empties and
	// is reclaimed under its stack, then carved for 2 again; and a
	// cached large page evicted and re-carved in one allocation.
	f.Add([]byte{alloc | 2, alloc | 2, free | 2, free | 2, alloc | 2, alloc | 2, rel | 2, alloc | 2})
	f.Add([]byte{alloc | 0, alloc | 0, alloc | 0, alloc | 0, cache | 0, cache | 0, cache | 0, cache | 0,
		alloc | 1, alloc | 2, alloc | 3, alloc | 0, alloc | 0, alloc | 5, rel | 8 | 1, alloc | 6, alloc | 6, alloc | 6, alloc | 6, alloc | 6})
	// Both groups: kv caches half a large page with two pages still on
	// 0's stack, pad takes the other three and caches two; kv's step 3
	// evicts its own page (the stack goes with it), then a pad page,
	// and pad's evicts the other; a pad page freed uncached goes back
	// to the returned stack, and kv carves it and, last, a pad page
	// cached by a release.
	f.Add([]byte{alloc | 0, alloc | 0, cache | 0, cache | 0, pad | 1, pad | 2, pad | 3, cache | onPad | 1, cache | onPad | 2,
		alloc | 4, alloc | 4, alloc | 4, alloc | 4, alloc | 4, pad | 5, free | onPad | 3, alloc | 0, rel | 8 | 5, alloc | 6})
	f.Fuzz(fuzzAssocStacks)
}

func fuzzAssocStacks(t *testing.T, data []byte) {
	spec := churnSpec()
	geo, err := spec.Geometry(4)
	if err != nil {
		t.Fatal(err)
	}
	m := newMgr(t, spec, int64(4*geo.LargePageBytes), 4, true)
	kv, pad := m.groups[m.groupIndex("kv")], m.groups[m.groupIndex("pad")]
	if !kv.stacked() || pad.stacked() {
		t.Fatalf("kv (ratio %d) stacked %v, pad (ratio %d) stacked %v: want one group of each", kv.ratio, kv.stacked(), pad.ratio, pad.stacked())
	}
	ref := &lazyAssoc{m: m, g: kv, freeByReq: map[RequestID][]arena.SmallPageID{}}
	var held [2][8][]arena.SmallPageID // by group index
	live := func() (n int) {
		for req := range held[kv.idx] {
			if len(held[kv.idx][req])+len(held[pad.idx][req]) > 0 {
				n++
			}
		}
		return n
	}
	// What a request holds it holds through its page table, as
	// CheckInvariants counts references.
	table := func(g *group, req RequestID) *[]pageRef { return &m.getReq(&Sequence{ID: req}).g[g.idx].pages }
	var hash uint64
	release := func(g *group, req RequestID, id arena.SmallPageID, cached bool, now Tick) {
		tab := *table(g, req)
		tab[slices.Index(tab, pageRef{id: id, held: true})].held = false
		pg := &g.pages[id]
		if cached {
			// A block-boundary commit: complete, content never seen before.
			hash++
			g.hash[id], pg.complete, pg.filled = hash, true, int32(g.tpp)
			g.filledSlots += int64(g.tpp)
		}
		if g != kv {
			m.pageRelease(g, id, cached, now, false)
			return
		}
		assoc := kv.links[id].req
		m.pageRelease(g, id, cached, now, false)
		if pg.status == pageEmpty {
			ref.freed(assoc, id, live())
		}
	}
	owned := func() int { return kv.ownedLarge + pad.ownedLarge }
	before := make([]page, len(kv.pages))
	beforeLinks := make([]assocLink, len(kv.links))
	for i, b := range data {
		req, now := RequestID(b&7), Tick(i+1)
		switch op := b >> 5; op {
		case 4, 5:
			g := kv
			if b&16 != 0 {
				g = pad
			}
			if h := held[g.idx][req]; len(h) > 0 {
				held[g.idx][req] = h[1:]
				release(g, req, h[0], op == 5, now)
			}
		case 6:
			for _, g := range []*group{kv, pad} {
				for _, id := range held[g.idx][req] {
					release(g, req, id, b&8 != 0, now)
				}
				held[g.idx][req] = nil
				g.dropAssocList(req)
			}
			delete(ref.freeByReq, req)
			if r, ok := m.reqs[req]; ok {
				delete(m.reqs, req)
				m.parkReq(r)
			}
		default:
			g := kv
			if op == 7 {
				g = pad
			}
			var want, got arena.SmallPageID
			var wantOK, gotOK bool
			if got, gotOK = g.popAssocFree(req); g == kv {
				want, wantOK = ref.pop(req)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: request %d pops %s page %d (%v), the lazy lists %d (%v)", i, req, g.spec.Name, got, gotOK, want, wantOK)
			}
			copy(before, kv.pages)
			copy(beforeLinks, kv.links)
			// Large pages taken: those owned more, and those reclaimed
			// on the way.
			taken := owned() + int(m.stats.LargeReclaims)
			id, err := m.allocSmall(g, req)
			taken = owned() + int(m.stats.LargeReclaims) - taken
			// What the allocation evicted on the way was freed, in
			// page order, under the request each page was last used by.
			for p := range before {
				if before[p].status == pageCached && kv.pages[p].status != pageCached {
					ref.freed(beforeLinks[p].req, arena.SmallPageID(p), live())
				}
			}
			if err != nil {
				break
			}
			if gotOK && id != got {
				t.Fatalf("op %d: request %d was given page %d with %d on top of its stack", i, req, id, got)
			}
			if g == kv && taken == 1 {
				first, n := kv.view.SmallRange(kv.view.LargeOf(id))
				ref.carved(req, first, n)
			}
			held[g.idx][req] = append(held[g.idx][req], id)
			*table(g, req) = append(*table(g, req), pageRef{id: id, held: true})
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for _, g := range []*group{kv, pad} {
		for req := range held[g.idx] {
			for _, id := range held[g.idx][req] {
				release(g, RequestID(req), id, false, Tick(len(data)+1))
			}
		}
	}
	audit(t, m)
}
