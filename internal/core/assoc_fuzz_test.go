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
	pg := &l.g.pages[id]
	return pg.status == pageEmpty && pg.assoc == req &&
		l.m.largeOwner[l.g.view.LargeOf(id)] == int32(l.g.idx) && l.g.free.has(id)
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

// FuzzAssocStacks drives one group of a real manager at page level —
// allocSmall, pageRelease, the stack drop of a Release — with one
// byte-coded op stream, mirrors every transition that used to append to
// a lazy list into the reference, and requires the stacks and the lists
// to name the same page before every allocation's §5.4 step 1. Eight
// request IDs share four large pages of four small pages, so a stream
// reaches carves, frees into a partial large page, reclaims, step-4
// takes of another request's page, whole-large-page and single-page
// evictions of cached pages (whose frees land on long-gone requests'
// stacks), releases, and requests that come back under a released ID.
// Each byte is op<<5 | arg: ops 0-3 allocate for request arg%8, 4 and 5
// free that request's oldest page (5: into the cache), 6 releases the
// request (arg bit 3: into the cache), 7 is another allocation.
func FuzzAssocStacks(f *testing.F) {
	const (
		alloc = 0 << 5
		free  = 4 << 5
		cache = 5 << 5
		rel   = 6 << 5
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
	f.Fuzz(fuzzAssocStacks)
}

func fuzzAssocStacks(t *testing.T, data []byte) {
	spec := churnSpec()
	geo, err := spec.Geometry(4)
	if err != nil {
		t.Fatal(err)
	}
	m := newMgr(t, spec, int64(4*geo.LargePageBytes), 4, true)
	g := m.groups[m.groupIndex("kv")]
	ref := &lazyAssoc{m: m, g: g, freeByReq: map[RequestID][]arena.SmallPageID{}}
	var held [8][]arena.SmallPageID
	live := func() (n int) {
		for _, h := range held {
			if len(h) > 0 {
				n++
			}
		}
		return n
	}
	// What a request holds it holds through its page table, as
	// CheckInvariants counts references.
	table := func(req RequestID) *[]pageRef { return &m.getReq(&Sequence{ID: req}).g[g.idx].pages }
	var hash uint64
	release := func(req RequestID, id arena.SmallPageID, cached bool, now Tick) {
		tab := *table(req)
		tab[slices.Index(tab, pageRef{id: id, held: true})].held = false
		pg := &g.pages[id]
		if cached {
			// A block-boundary commit: complete, content never seen before.
			hash++
			g.hash[id], pg.complete, pg.filled = hash, true, int32(g.tpp)
			g.filledSlots += int64(g.tpp)
		}
		assoc := pg.assoc
		m.pageRelease(g, id, cached, now, false)
		if pg.status == pageEmpty {
			ref.freed(assoc, id, live())
		}
	}
	before := make([]page, len(g.pages))
	for i, b := range data {
		req, now := RequestID(b&7), Tick(i+1)
		switch op := b >> 5; op {
		case 4, 5:
			if h := held[req]; len(h) > 0 {
				held[req] = h[1:]
				release(req, h[0], op == 5, now)
			}
		case 6:
			for _, id := range held[req] {
				release(req, id, b&8 != 0, now)
			}
			held[req] = nil
			g.dropAssocList(req)
			delete(ref.freeByReq, req)
			if r, ok := m.reqs[req]; ok {
				delete(m.reqs, req)
				m.parkReq(r)
			}
		default:
			want, wantOK := ref.pop(req)
			got, gotOK := g.popAssocFree(req)
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: request %d pops page %d (%v), the lazy lists %d (%v)", i, req, got, gotOK, want, wantOK)
			}
			copy(before, g.pages)
			freeLarge, reclaims := len(m.freeLarge), m.stats.LargeReclaims
			id, err := m.allocSmall(g, req)
			// What the allocation evicted on the way was freed, in
			// page order, under the request each page was last used by.
			for p := range before {
				if before[p].status == pageCached && g.pages[p].status != pageCached {
					ref.freed(before[p].assoc, arena.SmallPageID(p), live())
				}
			}
			if err != nil {
				break
			}
			if gotOK && id != got {
				t.Fatalf("op %d: request %d was given page %d with %d on top of its stack", i, req, id, got)
			}
			if freeLarge+int(m.stats.LargeReclaims-reclaims)-len(m.freeLarge) == 1 {
				first, n := g.view.SmallRange(g.view.LargeOf(id))
				ref.carved(req, first, n)
			}
			held[req] = append(held[req], id)
			*table(req) = append(*table(req), pageRef{id: id, held: true})
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for req := range held {
		for _, id := range held[req] {
			release(RequestID(req), id, false, Tick(len(data)+1))
		}
	}
	audit(t, m)
}
