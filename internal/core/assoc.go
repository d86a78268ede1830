package core

import "jenga/internal/arena"

// Request-associated free pages (§4.3, §5.4 step 1): one LIFO stack per
// (group, request), threaded through the group's links — next is the
// page below, prev the page above, g.assocTop names the top. A page is
// pushed where it becomes empty in a large page its group owns
// (pageToEmpty, takeFreshLarge) and unlinked where that ends
// (pageToUsed, reclaimLarge), so a linked page is always empty, in
// g.free and associated with its stack's request, and the pop is a map
// read. Release drops its request's stack; the pages stay free for
// §5.4 step 4. Only a stacked group keeps links, so only it may link
// and unlink; any other's assocTop stays empty, and the pop and the drop
// find nothing there.
const (
	noPage   int32 = -1 // next of a bottom page, prev of a top page
	offStack int32 = -2 // prev of a page on no stack
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
		g.links[id].prev, g.links[id].next = noPage, below
		if below != noPage {
			g.links[below].prev = id
		}
		below = id
	}
	g.assocTop[req] = first
}

// unlinkAssoc takes page id out of its request's stack, if it is on
// one, wherever in it the page sits. Its link must still name that
// request.
//
//jenga:hotpath
func (g *group) unlinkAssoc(id arena.SmallPageID) {
	l := &g.links[id]
	if l.prev == offStack {
		return
	}
	if l.next != noPage {
		g.links[l.next].prev = l.prev
	}
	switch {
	case l.prev != noPage:
		g.links[l.prev].next = l.next
	case l.next != noPage:
		g.assocTop[l.req] = arena.SmallPageID(l.next)
	default:
		delete(g.assocTop, l.req)
	}
	l.prev, l.next = offStack, noPage
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
		l := &g.links[id]
		id = l.next
		l.prev, l.next = offStack, noPage
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
