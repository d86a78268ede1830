package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jenga/internal/debug"
	"jenga/internal/model"
)

// headLayout builds the sequence of request id over its tokens toks:
// the first h of them the head every request of the trace starts with,
// the last out of them generated.
type headLayout func(id RequestID, tag string, toks []Token, h, out int) *Sequence

// borrowedHeads lends every request one head array, as the generators
// lend an article or a group's prefix: the fork child too.
func borrowedHeads() headLayout {
	var head []Token
	return func(id RequestID, tag string, toks []Token, h, out int) *Sequence {
		if head == nil {
			head = slices.Clone(toks[:h])
		}
		n := len(toks)
		return &Sequence{ID: id, Tag: tag, Shared: head[:h:h], Tokens: toks[h : n-out : n-out], Out: toks[n-out:], PromptLen: n - out}
	}
}

// clonedHeads gives each request its own copy of the head.
func clonedHeads() headLayout {
	heads := map[RequestID][]Token{}
	return func(id RequestID, tag string, toks []Token, h, out int) *Sequence {
		if heads[id] == nil {
			heads[id] = slices.Clone(toks[:h])
		}
		n := len(toks)
		return &Sequence{ID: id, Tag: tag, Shared: heads[id][:h:h], Tokens: toks[h : n-out : n-out], Out: toks[n-out:], PromptLen: n - out}
	}
}

// wholeTokens holds everything in Tokens.
func wholeTokens() headLayout {
	return func(id RequestID, tag string, toks []Token, h, out int) *Sequence {
		return &Sequence{ID: id, Tag: tag, Tokens: toks, PromptLen: len(toks) - out}
	}
}

// publishedHashes digests the hash and the eviction priority of every
// page the groups have published.
func publishedHashes(m *Jenga) string {
	var b strings.Builder
	for _, g := range m.groups {
		f := fnv.New64a()
		n := 0
		for id := range g.pages {
			if g.pages[id].has(pageHashed) {
				fmt.Fprint(f, id, g.hash[id], priorityOf(g, id))
				n++
			}
		}
		fmt.Fprintf(&b, "%s:%d:%x ", g.spec.Name, n, f.Sum64())
	}
	return b.String()
}

// priorityOf is page id's eviction priority, 0 where its group keeps
// none (group.prio).
func priorityOf(g *group, id int) int64 {
	if g.prio == nil {
		return 0
	}
	return g.prio[id]
}

// headTrace serves five requests over one 13-token head (text, images,
// text) with the tags given in turn, under layout, and records every
// answer the manager gives: Lookup, Footprint and CachedPrefix of the
// first four while all four are live, then chunked and whole prefills
// with the record's block hashes and run keys (logicalHashes),
// decode steps, a fork and its divergent decode, releases with and
// without cache, and a fifth request over the cached head; with
// UsageTotals, the published block hashes and CheckInvariants along the
// way. live runs after the first four are registered.
func headTrace(t *testing.T, spec *model.Spec, tpp int, tags []string, layout headLayout, live func(*Jenga)) []string {
	t.Helper()
	m, err := New(Config{Spec: spec, CapacityBytes: 1 << 20, TokensPerPage: tpp, EnablePrefixCache: true, RequestAware: true})
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	note := func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }
	const h = 13
	head := make([]Token, h)
	for i := range head {
		if i >= 5 && i < 8 {
			head[i] = ImageToken(int32(900 + i))
		} else {
			head[i] = TextToken(int32(100 + i))
		}
	}
	type req struct {
		id   RequestID
		tag  string
		toks []Token
		out  int
	}
	reqs := make([]*req, 5)
	for i := range reqs {
		toks := slices.Clone(head)
		for j := range 9 + 4*i {
			c := int32(1000*(i+1) + j)
			if j%5 == 2 {
				toks = append(toks, ImageToken(c))
			} else {
				toks = append(toks, TextToken(c))
			}
		}
		reqs[i] = &req{id: RequestID(i + 1), tag: tags[i%len(tags)], toks: toks}
	}
	seqOf := func(r *req) *Sequence { return layout(r.id, r.tag, r.toks, h, r.out) }
	probe := func(r *req) {
		s := seqOf(r)
		note("req %d: lookup %d footprint %d cached %d", r.id, m.Lookup(s), m.Footprint(s), m.CachedPrefix(s))
	}
	state := func(what string) {
		note("%s: usage %+v published %s invariants %v", what, m.UsageTotals(), publishedHashes(m), m.CheckInvariants())
	}
	serve := func(r *req, chunk int, now Tick) {
		s := seqOf(r)
		note("req %d: encode %v", r.id, m.EncodeImages(s, s.Len(), now))
		for at := m.CachedPrefix(s); at < s.Len(); {
			at = min(at+chunk, s.Len())
			note("req %d: reserve %d: %v", r.id, at, m.Reserve(s, at, now))
			m.Commit(s, at, now)
			m.DropImages(s, at)
			note("req %d: hashes %v", r.id, logicalHashes(&m.reqs[r.id].h))
			note("req %d: footprint %d cached %d usage %+v", r.id, m.Footprint(s), m.CachedPrefix(s), m.UsageTotals())
		}
		state(fmt.Sprintf("req %d served", r.id))
	}
	decode := func(r *req, n int, now Tick) {
		for range n {
			r.toks = append(r.toks, TextToken(int32(50000+100*int(r.id)+len(r.toks))))
			r.out++
			s := seqOf(r)
			note("req %d: decode reserve %v", r.id, m.Reserve(s, s.Len(), now))
			m.Commit(s, s.Len(), now)
		}
		state(fmt.Sprintf("req %d decoded", r.id))
	}
	release := func(r *req, cache bool) {
		m.Release(seqOf(r), cache)
		state(fmt.Sprintf("req %d released (cache %v)", r.id, cache))
	}

	for _, r := range reqs[:4] {
		probe(r)
	}
	if live != nil {
		live(m)
	}
	serve(reqs[0], 5, 1)
	serve(reqs[1], 1<<20, 2)
	serve(reqs[2], 7, 3)
	decode(reqs[0], 4, 4)
	child := &req{id: 10, tag: reqs[0].tag, toks: slices.Clone(reqs[0].toks), out: reqs[0].out}
	note("fork: %v", m.Fork(seqOf(reqs[0]), seqOf(child), 5))
	probe(child)
	decode(child, 3, 6)
	decode(reqs[0], 2, 6)
	release(reqs[1], true)
	probe(reqs[3])
	serve(reqs[3], 6, 7)
	release(reqs[2], false)
	release(child, true)
	release(reqs[0], true)
	release(reqs[3], false)
	probe(reqs[4])
	serve(reqs[4], 4, 8)
	release(reqs[4], true)
	return trace
}

// headSpecs are the group layouts the shared-head tests run on: every
// kind of group a sequence's tokens reach (partsSpec), a text-scoped
// class that keeps run keys (fleet_stream's spec), a Mamba checkpoint
// class, and two tagged models in one heap.
func headSpecs() []struct {
	name string
	spec *model.Spec
	tpp  int
	tags []string
} {
	return []struct {
		name string
		spec *model.Spec
		tpp  int
		tags []string
	}{
		{"parts", partsSpec(), 4, []string{""}},
		{"text-scoped", textOnlySpec(), 4, []string{""}},
		{"mamba", mambaSpec(4), 2, []string{""}},
		{"two models", specDecodeSpec(), 2, []string{"target", "draft"}},
	}
}

// TestSharedHeadsAreInvisible: whether requests borrow one head array
// (and so one head memo), each own a copy of it, or hold everything in
// Tokens makes no difference to any answer. Four requests, a fork child
// and a later fifth request over one head get, under each layout, the
// same Lookup, Footprint, Reserve, Commit, CachedPrefix and UsageTotals
// answers, read the same block hashes and run keys through their
// records, and the groups publish the same block hashes and priorities.
func TestSharedHeadsAreInvisible(t *testing.T) {
	for _, c := range headSpecs() {
		t.Run(c.name, func(t *testing.T) {
			want := headTrace(t, c.spec, c.tpp, c.tags, wholeTokens(), func(m *Jenga) {
				if len(m.heads) != 0 {
					t.Fatalf("%d head memos with no Shared head", len(m.heads))
				}
			})
			for _, l := range []struct {
				name   string
				layout headLayout
				memos  int // while the first four requests are live
			}{
				{"borrowed", borrowedHeads(), len(c.tags)},
				{"cloned", clonedHeads(), 4},
			} {
				got := headTrace(t, c.spec, c.tpp, c.tags, l.layout, func(m *Jenga) {
					refs := 0
					for _, hm := range m.heads {
						refs += hm.refs
					}
					if len(m.heads) != l.memos || refs != 4 {
						t.Fatalf("%s heads: %d memos counting %d references, want %d counting 4", l.name, len(m.heads), refs, l.memos)
					}
				})
				if reflect.DeepEqual(got, want) {
					continue
				}
				for k := range min(len(got), len(want)) {
					if got[k] != want[k] {
						t.Fatalf("%s heads: answer %d differs\n  %s\n  whole %s", l.name, k, got[k], want[k])
					}
				}
				t.Fatalf("%s heads: %d answers, whole %d", l.name, len(got), len(want))
			}
		})
	}
}

// headSeq is request id over head and a tail of n tokens of its own.
func headSeq(id RequestID, head []Token, n int) *Sequence {
	s := &Sequence{ID: id, Shared: head}
	for i := range n {
		s.Tokens = append(s.Tokens, TextToken(int32(int(id)*100+i+1)))
	}
	return s
}

// commitHead reserves and commits all of s.
func commitHead(t *testing.T, m *Jenga, s *Sequence, now Tick) {
	t.Helper()
	if err := m.Reserve(s, s.Len(), now); err != nil {
		t.Fatal(err)
	}
	m.Commit(s, s.Len(), now)
}

// spareHeads lists the manager's spare memos.
func spareHeads(m *Jenga) []*headMemo {
	var out []*headMemo
	for hm := m.spareHeads; hm != nil; hm = hm.next {
		out = append(out, hm)
	}
	return out
}

// headOf is the memo of s's head, nil when the manager keeps none.
func headOf(m *Jenga, s *Sequence) *headMemo {
	return m.heads[headKey{toks: &s.Shared[0], n: len(s.Shared), tag: s.Tag}]
}

// TestHeadMemoLifetime: a head memo is counted by the live records that
// name it and dropped with the last of them — whatever ends the record:
// Release with or without cache, a fork child's Release, a record
// restarted because its ID came back over another head — and a claim
// that rolls back keeps it. CrashReset drops every memo. CheckInvariants
// holds after each step, and a dropped memo is parked for the next head.
func TestHeadMemoLifetime(t *testing.T) {
	const tpp = 4
	head := slices.Clone(textSeq(0, 20).Tokens)
	refs := func(t *testing.T, m *Jenga, s *Sequence, want int) {
		t.Helper()
		audit(t, m)
		hm := headOf(m, s)
		switch {
		case want == 0 && hm != nil:
			t.Fatalf("the head's memo lives on with %d references", hm.refs)
		case want > 0 && (hm == nil || hm.refs != want):
			t.Fatalf("the head's memo is %v, want one with %d references", hm, want)
		}
	}
	t.Run("release", func(t *testing.T) {
		m := newMgr(t, flatSpec(), 1<<20, tpp, true)
		a, b, c := headSeq(1, head, 5), headSeq(2, head, 6), headSeq(3, head, 7)
		commitHead(t, m, a, 1)
		refs(t, m, a, 1)
		if p := m.Lookup(b); p != 20 {
			t.Fatalf("b hits %d tokens, want the head's 20", p)
		}
		commitHead(t, m, c, 2)
		refs(t, m, a, 3)
		m.Release(a, true)
		refs(t, m, a, 2)
		m.Release(b, false) // looked up only
		refs(t, m, a, 1)
		m.Release(c, true)
		refs(t, m, a, 0)
		if len(m.heads) != 0 || len(spareHeads(m)) != 1 {
			t.Fatalf("%d memos kept and %d parked with no live request, want 0 and 1", len(m.heads), len(spareHeads(m)))
		}
		d := headSeq(4, slices.Clone(head), 3)
		commitHead(t, m, d, 3)
		if len(spareHeads(m)) != 0 || m.CachedPrefix(d) != 20 {
			t.Fatalf("a new head left %d memos parked and hit %d tokens, want 0 and 20", len(spareHeads(m)), m.CachedPrefix(d))
		}
	})
	t.Run("fork child", func(t *testing.T) {
		m := newMgr(t, flatSpec(), 1<<20, tpp, true)
		a := headSeq(1, head, 5)
		commitHead(t, m, a, 1)
		child := &Sequence{ID: 2, Shared: a.Shared, Tokens: a.Tokens}
		if err := m.Fork(a, child, 2); err != nil {
			t.Fatal(err)
		}
		refs(t, m, a, 1) // the child has folded nothing in yet
		child.Out = []Token{TextToken(777)}
		commitHead(t, m, child, 3)
		refs(t, m, a, 2)
		m.Release(a, true)
		refs(t, m, a, 1)
		m.Release(child, true)
		refs(t, m, a, 0)
	})
	t.Run("ID reused over another head", func(t *testing.T) {
		m := newMgr(t, flatSpec(), 1<<20, tpp, true)
		a := headSeq(1, head, 5)
		if p := m.Lookup(a); p != 0 {
			t.Fatalf("cold lookup hit %d tokens", p)
		}
		other := slices.Clone(head)
		other[len(other)-1] = TextToken(4242)
		b := headSeq(1, other, 5)
		b.Tokens = b.Tokens[:4] // not an extension of what a folded in
		if p := m.Lookup(b); p != 0 {
			t.Fatalf("cold lookup hit %d tokens", p)
		}
		refs(t, m, a, 0)
		refs(t, m, b, 1)
		m.Release(b, false)
		refs(t, m, b, 0)
	})
	t.Run("rolled-back claim", func(t *testing.T) {
		spec := vlmSpec()
		geo, err := spec.Geometry(2)
		if err != nil {
			t.Fatal(err)
		}
		// TestFailedClaimKeepsVisionPages' shape, its third request over a
		// borrowed head: the claim's restore runs out of memory.
		large := int64(geo.LargePageBytes)
		m := newTieredMgr(t, spec, 8*large, 8*large, 2)
		a := textSeq(1, 8)
		commitSeq(t, m, a, 1)
		b := &Sequence{ID: 2}
		for i := 0; i < 14; i++ {
			b.Tokens = append(b.Tokens, Token{ID: int32(500 + i)})
		}
		if err := m.Reserve(b, 14, 2); err != nil {
			t.Fatal(err)
		}
		m.Commit(b, 14, 2)
		c := &Sequence{ID: 3, Shared: slices.Clone(a.Tokens), Tokens: []Token{ImageToken(1), ImageToken(2), Token{ID: 9}}}
		if err := m.EncodeImages(c, c.Len(), 3); err != nil {
			t.Fatal(err)
		}
		if p := m.Lookup(c); p != 8 {
			t.Fatalf("lookup = %d, want a's 8 tokens, all in the host tier", p)
		}
		if err := m.Reserve(c, c.Len(), 3); err == nil || m.TierStats().SwapIns != 0 {
			t.Fatalf("reserve on a full device: %v, %d restores; the restore was meant to fail", err, m.TierStats().SwapIns)
		}
		refs(t, m, c, 1)
		m.Release(c, false)
		refs(t, m, c, 0)
		m.Release(b, false)
		audit(t, m)
	})
	t.Run("CrashReset", func(t *testing.T) {
		m := newMgr(t, flatSpec(), 1<<20, tpp, true)
		a := headSeq(1, head, 5)
		commitHead(t, m, a, 1)
		refs(t, m, a, 1)
		if err := m.CrashReset(); err != nil {
			t.Fatal(err)
		}
		if len(m.heads) != 0 || len(spareHeads(m)) != 0 {
			t.Fatalf("CrashReset kept %d memos and %d parked", len(m.heads), len(spareHeads(m)))
		}
		audit(t, m)
	})
}

// TestCheckInvariantsHeadMemos: CheckInvariants names a memo whose
// reference count is off, one that no live request names, a record
// whose head entries are not its memo's, and a spare memo that still
// holds hashes — or, in a jengadebug build, is not scribbled.
func TestCheckInvariantsHeadMemos(t *testing.T) {
	head := slices.Clone(textSeq(0, 20).Tokens)
	cases := []struct {
		name    string
		corrupt func(t *testing.T, m *Jenga, a *Sequence)
		want    string // "" means the manager must still pass
	}{
		{"intact", func(*testing.T, *Jenga, *Sequence) {}, ""},
		{"reference count", func(_ *testing.T, m *Jenga, a *Sequence) {
			headOf(m, a).refs++
		}, "counts 3 references and is named by 2 live records"},
		{"memo nobody names", func(_ *testing.T, m *Jenga, a *Sequence) {
			hm := m.takeHead()
			hm.key, hm.refs = headOf(m, a).key, 1
			hm.key.n, hm.h.n = 3, 3
			m.heads[hm.key] = hm
		}, "counts 1 references and is named by 0 live records"},
		{"stale head entries", func(_ *testing.T, m *Jenga, a *Sequence) {
			ch := &m.reqs[a.ID].h.c[0]
			ch.head = slices.Clone(ch.head)
			ch.head[0]++
		}, "head entries are not its memo's"},
		{"spare memo holds hashes", func(_ *testing.T, m *Jenga, a *Sequence) {
			m.Release(&Sequence{ID: 1}, false)
			m.Release(&Sequence{ID: 2}, false)
			spareHeads(m)[0].h.n = 4
		}, "a spare head memo still holds 4 tokens"},
		{"dropped memo not scribbled", func(t *testing.T, m *Jenga, a *Sequence) {
			if !debug.On {
				t.Skip("only a jengadebug build scribbles a dropped memo")
			}
			m.Release(&Sequence{ID: 1}, false)
			m.Release(&Sequence{ID: 2}, false)
			hc := &spareHeads(m)[0].h.c[0]
			hc.hashes[:1][0] = 7
		}, "not scribbled"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newMgr(t, flatSpec(), 1<<20, 4, true)
			a, b := headSeq(1, head, 5), headSeq(2, head, 6)
			commitHead(t, m, a, 1)
			commitHead(t, m, b, 2)
			c.corrupt(t, m, a)
			err := m.CheckInvariants()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("sound manager reported: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// TestChangedHeadPanics: a jengadebug build compares a head with its
// memo's checksum whenever another record borrows it, so a head whose
// content changed while its memo lives — a generator that refilled the
// array it lent — panics instead of naming new content by old hashes.
func TestChangedHeadPanics(t *testing.T) {
	if !debug.On {
		t.Skip("only a jengadebug build checks a borrowed head's content")
	}
	m := newMgr(t, flatSpec(), 1<<20, 4, true)
	head := slices.Clone(textSeq(0, 20).Tokens)
	commitHead(t, m, headSeq(1, head, 5), 1)
	head[7] = TextToken(4242)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "changed while its memo lives") {
			t.Fatalf("recovered %v, want the changed-head check", r)
		}
	}()
	m.Lookup(headSeq(2, head, 5))
}
