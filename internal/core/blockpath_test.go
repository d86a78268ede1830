package core

import (
	"fmt"
	"slices"
	"testing"

	"jenga/internal/model"
)

// prioRecorder is MambaPolicy recording the block index of every
// BlockPriority call.
type prioRecorder struct {
	MambaPolicy
	blocks []int
}

func (p *prioRecorder) BlockPriority(b int, run uint64) int64 {
	p.blocks = append(p.blocks, b)
	return p.MambaPolicy.BlockPriority(b, run)
}

// TestMambaClaimThenExtend: a Mamba group's table is indexed by
// checkpoint. A claim at checkpoint n leaves the entries below n unheld
// and sets ckptDone to n; the commits that follow finalize entries n,
// n+1, … under the record's hashes for them, a fork in between shares
// the finalized ones, and BlockPriority gets each checkpoint's absolute
// index, as a token group's blocks get theirs — where something reads
// the answer: with a host tier, which carries it. The ratio-1 Mamba
// group keeps no small-page queue, so without a tier it is never asked.
func TestMambaClaimThenExtend(t *testing.T) {
	for _, tier := range []int64{0, 1 << 20} {
		t.Run(fmt.Sprintf("tier=%d", tier), func(t *testing.T) { mambaClaimThenExtend(t, tier) })
	}
}

func mambaClaimThenExtend(t *testing.T, tier int64) {
	rec := &prioRecorder{MambaPolicy: MambaPolicy{Every: 4}}
	m, err := New(Config{Spec: mambaSpec(4), CapacityBytes: 1 << 20, TokensPerPage: 2, HostTierBytes: tier,
		EnablePrefixCache: true, RequestAware: true, PolicyOverride: map[string]Policy{"mamba": rec}})
	if err != nil {
		t.Fatal(err)
	}
	if (m.host != nil) != (tier > 0) {
		t.Fatalf("a %d-byte tier builds a host tier: %v", tier, m.host != nil)
	}
	g := m.groups[m.groupIndex("mamba")]
	a := textSeq(1, 11) // checkpoints 0 and 1, at 4 and 8
	commitAll(t, m, a, 1)
	m.Release(a, true)

	b := textSeq(2, 13) // a's first 11 tokens and two more
	if p := m.Lookup(b); p != 8 {
		t.Fatalf("lookup = %d, want 8 (checkpoint 1)", p)
	}
	commitAll(t, m, b, 2) // claims at 8, finalizes checkpoint 2 at 12
	if got := m.CachedPrefix(b); got != 8 {
		t.Fatalf("cached prefix = %d, want 8", got)
	}
	child := forkChild(t, m, b, 3)
	for i := 0; i < 4; i++ { // both cross 16: checkpoint 3
		extend(t, m, b, Tick(4+i))
		extend(t, m, child, Tick(4+i))
	}
	audit(t, m)

	for _, s := range []*Sequence{b, child} {
		r := m.reqs[s.ID]
		rg, ch := &r.g[g.idx], &r.h.c[g.hclass]
		if rg.ckptDone != 4 || rg.end() != 4 {
			t.Fatalf("request %d: ckptDone %d, table of %d entries; want 4 and 4", s.ID, rg.ckptDone, rg.end())
		}
		for k := range rg.end() {
			ref := rg.at(k)
			if held := ref.held(); held != (k >= 2) {
				t.Fatalf("request %d: entry %d held %v; the claim at checkpoint 2 holds only the entries from 2", s.ID, k, held)
			}
			if k < 2 {
				continue
			}
			if got, ok := g.index.get(ch.at(k)); !ok || got != ref.id() || g.hash[ref.id()] != ch.at(k) {
				t.Fatalf("request %d: checkpoint %d on page %d has hash %x, the record %x (indexed at %d: %v)",
					s.ID, k, ref.id(), g.hash[ref.id()], ch.at(k), got, ok)
			}
		}
	}
	if r, c := &m.reqs[b.ID].g[g.idx], &m.reqs[child.ID].g[g.idx]; r.at(2) != c.at(2) || r.at(3) == c.at(3) {
		t.Fatalf("parent entries %v, child's %v: the fork shares checkpoint 2, each branch writes its own 3", r.table, c.table)
	}
	// a finalizes 0 and 1; b finalizes 2 and then 3, as does the child.
	want := []int{0, 1, 2, 3, 3}
	if m.host == nil {
		want = nil
	}
	if !slices.Equal(rec.blocks, want) {
		t.Fatalf("BlockPriority asked for blocks %v, want %v", rec.blocks, want)
	}
	m.Release(b, true)
	m.Release(child, true)
	audit(t, m)
}

// prefixRecorder is MambaPolicy recording the projected length of
// every ValidPrefix call.
type prefixRecorder struct {
	MambaPolicy
	asked []int
}

func (p *prefixRecorder) ValidPrefix(v *GroupSeqView, prefix int) bool {
	p.asked = append(p.asked, v.ProjCount[prefix])
	return p.MambaPolicy.ValidPrefix(v, prefix)
}

// TestMambaLookupAsksOnlyAtCheckpoints: a lookup skips the candidates
// that do not project to a whole number of checkpoints before asking
// the policy, as it skips a token group's misaligned ones, and a
// rejection steps down one checkpoint (the entry RangeCached found
// absent).
func TestMambaLookupAsksOnlyAtCheckpoints(t *testing.T) {
	spec := &model.Spec{
		Name: "mamba-only", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{{Name: "mamba", Kind: model.Mamba, Layers: 2, StateBytes: 1024, CheckpointEvery: 4}},
	}
	rec := &prefixRecorder{MambaPolicy: MambaPolicy{Every: 4}}
	m, err := New(Config{Spec: spec, CapacityBytes: 1 << 20, TokensPerPage: 2,
		EnablePrefixCache: true, RequestAware: true, PolicyOverride: map[string]Policy{"mamba": rec}})
	if err != nil {
		t.Fatal(err)
	}
	a := textSeq(1, 10) // checkpoints at 4 and 8
	commitAll(t, m, a, 1)
	m.Release(a, true)

	b := textSeq(2, 23) // a's tokens and 13 more: no checkpoint past 8 cached
	rec.asked = nil
	if p := m.Lookup(b); p != 8 {
		t.Fatalf("lookup = %d, want 8", p)
	}
	if len(rec.asked) < 4 || !slices.Equal(rec.asked[:4], []int{20, 16, 12, 8}) {
		t.Fatalf("the policy was asked at %v, want 20, 16, 12, 8 first", rec.asked)
	}
	for _, pl := range rec.asked { // a jengadebug build's linear scan asks again
		if pl%4 != 0 {
			t.Fatalf("the policy was asked at %d, off a checkpoint multiple (all: %v)", pl, rec.asked)
		}
	}
	m.Release(b, false)
	audit(t, m)
}

// TestEncodeImagesForkCopyOnWrite: embeddings go through the
// reservation path. A two-block encode takes its pages in block order;
// a fork child's encode into the partly filled embedding block the two
// share privatizes exactly that page, and the parent's fill is
// unchanged.
func TestEncodeImagesForkCopyOnWrite(t *testing.T) {
	m := newMgr(t, vlmSpec(), 1<<20, 4, true)
	g := m.groups[m.groupIndex("vision")]
	parent := &Sequence{ID: 1, Tokens: []Token{{ID: 1}, {ID: 2}}}
	for i := 0; i < 8; i++ {
		parent.Tokens = append(parent.Tokens, ImageToken(int32(10+i)))
	}
	parent.Tokens = append(parent.Tokens, Token{ID: 3}, Token{ID: 4})

	if err := m.EncodeImages(parent, 8, 1); err != nil { // 6 images: a full block and 2 of the next
		t.Fatal(err)
	}
	pr := &m.reqs[parent.ID].g[g.idx]
	if want := []pageRef{heldRef(0), heldRef(1)}; !slices.Equal(pr.table, want) || pr.base != 0 {
		t.Fatalf("a two-block encode holds %v from entry %d, want %v from 0", pr.table, pr.base, want)
	}
	if f0, f1 := g.pages[0].filled, g.pages[1].filled; f0 != 4 || f1 != 2 {
		t.Fatalf("embedding blocks filled %d and %d, want 4 and 2", f0, f1)
	}

	child := forkChild(t, m, parent, 2)
	base := m.Stats().CowCopies
	if err := m.EncodeImages(child, 12, 2); err != nil { // the last 2 images
		t.Fatal(err)
	}
	audit(t, m)
	cr := &m.reqs[child.ID].g[g.idx]
	if got := m.Stats().CowCopies - base; got != 1 {
		t.Fatalf("the child's encode made %d copy-on-write copies, want 1", got)
	}
	if cr.at(0) != pr.at(0) || cr.at(1) == pr.at(1) {
		t.Fatalf("parent holds %v, child %v: only the partly filled block is privatized", pr.table, cr.table)
	}
	if pf, cf := g.pages[pr.at(1).id()].filled, g.pages[cr.at(1).id()].filled; pf != 2 || cf != 4 {
		t.Fatalf("the shared block's fill: parent %d, child %d; want 2 and 4", pf, cf)
	}
	if got := m.Usage().PerGroup["vision"].Used; got != (4+2+4)*128 {
		t.Fatalf("vision used %d, want %d", got, (4+2+4)*128)
	}
	m.Release(parent, false)
	m.Release(child, false)
	audit(t, m)
}
