package core

import "jenga/internal/arena"

// Request-associated free pages (§4.3, §5.4 step 1): one LIFO stack per
// (group, request), threaded through the pages — anext is the page
// below, aprev the page above, g.assocTop names the top. A page is
// pushed where it becomes empty in a large page its group owns
// (pageToEmpty, takeFreshLarge) and unlinked where that ends
// (pageToUsed, reclaimLarge), so a linked page is always empty, in
// g.free and associated with its stack's request, and the pop is a map
// read. Release drops its request's stack; the pages stay free for
// §5.4 step 4.
const (
	noPage   int32 = -1 // anext of a bottom page, aprev of a top page
	offStack int32 = -2 // aprev of a page on no stack
)

// linkAssoc pushes pages first+n-1 … first, in that order, on req's
// stack; all are associated with req.
//
//jenga:hotpath
func (g *group) linkAssoc(req RequestID, first arena.SmallPageID, n int) {
	below := noPage
	if top, ok := g.assocTop[req]; ok {
		below = int32(top)
	}
	for id := int32(first) + int32(n) - 1; id >= int32(first); id-- {
		pg := &g.pages[id]
		pg.aprev, pg.anext = noPage, below
		if below != noPage {
			g.pages[below].aprev = id
		}
		below = id
	}
	g.assocTop[req] = first
}

// unlinkAssoc takes page id out of its request's stack, if it is on
// one, wherever in it the page sits. pg.assoc must still name that
// request.
//
//jenga:hotpath
func (g *group) unlinkAssoc(id arena.SmallPageID) {
	pg := &g.pages[id]
	if pg.aprev == offStack {
		return
	}
	if pg.anext != noPage {
		g.pages[pg.anext].aprev = pg.aprev
	}
	switch {
	case pg.aprev != noPage:
		g.pages[pg.aprev].anext = pg.anext
	case pg.anext != noPage:
		g.assocTop[pg.assoc] = arena.SmallPageID(pg.anext)
	default:
		delete(g.assocTop, pg.assoc)
	}
	pg.aprev, pg.anext = offStack, noPage
}

// dropAssocList forgets req's stack.
//
//jenga:hotpath
func (g *group) dropAssocList(req RequestID) {
	top, ok := g.assocTop[req]
	if !ok {
		return
	}
	for id := int32(top); id != noPage; {
		pg := &g.pages[id]
		id = pg.anext
		pg.aprev, pg.anext = offStack, noPage
	}
	delete(g.assocTop, req)
}

// popAssocFree returns the empty page most recently associated with
// req; it stays linked until pageToUsed takes it.
//
//jenga:hotpath
func (g *group) popAssocFree(req RequestID) (arena.SmallPageID, bool) {
	id, ok := g.assocTop[req]
	return id, ok
}
