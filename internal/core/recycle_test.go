package core

import (
	"math/rand"
	"reflect"
	"testing"

	"jenga/internal/model"
)

// recycleSpec has one group of every kind of per-request table: block
// pages (full attention over all tokens), a Mamba working state with
// checkpoints, and a vision-embedding cache over image tokens.
func recycleSpec() *model.Spec {
	return &model.Spec{
		Name: "recycle", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128},
			{Name: "mamba", Kind: model.Mamba, Layers: 1, StateBytes: 512, CheckpointEvery: 4},
			{Name: "vision", Kind: model.VisionEmbedding, Layers: 1, BytesPerToken: 256, Scope: model.ScopeImage},
		},
		Vision: &model.VisionSpec{Params: 100, TokensPerImage: 4},
	}
}

// recycleSeq builds n tokens, every fourth one (from the second) an
// image token, with content unique to (id, position).
func recycleSeq(id RequestID, n int) *Sequence {
	s := &Sequence{ID: id}
	for p := 0; p < n; p++ {
		c := int32((int(id)*37+p)%997 + 1)
		if p%4 == 1 {
			s.Tokens = append(s.Tokens, ImageToken(c))
		} else {
			s.Tokens = append(s.Tokens, TextToken(c))
		}
	}
	return s
}

// serve encodes, reserves and commits the whole sequence.
func serve(m *Jenga, s *Sequence, now Tick) error {
	if err := m.EncodeImages(s, len(s.Tokens), now); err != nil {
		return err
	}
	if err := m.Reserve(s, len(s.Tokens), now); err != nil {
		return err
	}
	m.Commit(s, len(s.Tokens), now)
	return nil
}

// requirePristine fails unless r is, field for field, the state a new
// manager builds for the same request: empty tables with no held
// reference anywhere in their arrays, Mamba's next checkpoint at the
// first boundary, and a block-hash record holding nothing, its chains
// at the seed.
func requirePristine(t *testing.T, r, fresh *reqState) {
	t.Helper()
	got := *r
	got.g = append([]reqGroup(nil), r.g...)
	for gi := range got.g {
		rg := &got.g[gi]
		if len(rg.table) != 0 || rg.base != 0 {
			t.Fatalf("group %d: recycled table has %d entries from entry %d", gi, len(rg.table), rg.base)
		}
		for i, ref := range rg.table[:cap(rg.table)] {
			if ref != (pageRef{}) {
				t.Fatalf("group %d: recycled table slot %d still reads %+v", gi, i, ref)
			}
		}
		// A fresh state's tables are nil; a recycled one's are empty.
		rg.table = nil
	}
	got.h.c = append([]classHashes(nil), r.h.c...)
	for ci := range got.h.c {
		ch := &got.h.c[ci]
		if len(ch.hashes) != 0 || len(ch.runs) != 0 {
			t.Fatalf("class %d: recycled record holds %d hashes, %d run keys", ci, len(ch.hashes), len(ch.runs))
		}
		// A fresh record's arrays are nil; a recycled one's are empty.
		ch.hashes, ch.runs = nil, nil
	}
	if !reflect.DeepEqual(got, *fresh) {
		t.Fatalf("recycled state differs from a fresh one:\n got  %+v\n want %+v", got, *fresh)
	}
	// And the fresh one is what getReq has always built.
	want := reqState{id: r.id, g: make([]reqGroup, len(r.g)), h: seqHashes{c: make([]classHashes, len(r.h.c))}}
	for ci := range want.h.c {
		want.h.c[ci] = classHashes{chain: blockHashSeed, run: blockHashSeed}
	}
	if !reflect.DeepEqual(*fresh, want) {
		t.Fatalf("fresh state:\n got  %+v\n want %+v", *fresh, want)
	}
}

// TestReqStateRecycled: Release parks a request's state and the next
// new request — by Reserve, EncodeImages or Fork — gets it back
// indistinguishable from a new one, whatever its previous owner did
// with it; parked plus live states never exceed the most requests that
// were live at once; CrashReset drops the list with everything else.
func TestReqStateRecycled(t *testing.T) {
	cfg := Config{Spec: recycleSpec(), CapacityBytes: 1 << 20, TokensPerPage: 2, EnablePrefixCache: true, RequestAware: true}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The previous owners: a parent that used pages, checkpoints and
	// vision pages, and a forked child that copied all three and then
	// diverged (copy-on-write, new checkpoints).
	parent := recycleSeq(1, 23)
	if err := serve(m, parent, 1); err != nil {
		t.Fatal(err)
	}
	child := &Sequence{ID: 2, Tokens: append([]Token(nil), parent.Tokens...)}
	if err := m.Fork(parent, child, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		extend(t, m, parent, Tick(3+i))
		extend(t, m, child, Tick(3+i))
	}
	used := m.reqs[child.ID]
	if rg := used.g; len(rg[0].table) == 0 || len(rg[1].table) == 0 || len(rg[2].table) == 0 {
		t.Fatalf("fixture did not use every kind of table: %d pages, %d checkpoints, %d vision pages",
			len(rg[0].table), len(rg[1].table), len(rg[2].table))
	}
	m.Release(child, true)
	m.Release(parent, false)
	audit(t, m)
	if len(m.spareReqs) != 2 || len(m.reqs) != 0 {
		t.Fatalf("%d parked, %d live states after two requests came and went; want 2, 0", len(m.spareReqs), len(m.reqs))
	}

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := RequestID(10); len(m.spareReqs) > 0; id++ {
		r := m.takeReq(id)
		if cap(r.g[0].table) == 0 || cap(r.h.c[0].hashes) == 0 {
			t.Fatal("recycled state lost its page table's or its hash record's array")
		}
		requirePristine(t, r, ref.takeReq(id))
	}

	// Fork takes from the list too.
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := serve(m2, recycleSeq(1, 9), 1); err != nil {
		t.Fatal(err)
	}
	m2.Release(recycleSeq(1, 9), false)
	p := recycleSeq(2, 9)
	if err := serve(m2, p, 2); err != nil { // takes the parked state
		t.Fatal(err)
	}
	m2.Release(&Sequence{ID: 3}, false) // unknown request: parks nothing
	if len(m2.spareReqs) != 0 {
		t.Fatalf("%d parked states with the only one lent out", len(m2.spareReqs))
	}
	c := &Sequence{ID: 4, Tokens: append([]Token(nil), p.Tokens...)}
	if err := m2.Fork(p, c, 3); err != nil {
		t.Fatal(err)
	}
	m2.Release(c, true)
	recycled := m2.spareReqs[0]
	c.ID = 5
	if err := m2.Fork(p, c, 4); err != nil {
		t.Fatal(err)
	}
	if m2.reqs[c.ID] != recycled {
		t.Fatal("Fork built a new state while one was parked")
	}
	audit(t, m2)

	if err := m2.CrashReset(); err != nil {
		t.Fatal(err)
	}
	if len(m2.spareReqs) != 0 || len(m2.reqs) != 0 {
		t.Fatalf("CrashReset kept %d parked and %d live states", len(m2.spareReqs), len(m2.reqs))
	}
}

// TestReqStatesBounded: over 5,000 mixed requests — served whole,
// forked, extended, finished cached or cancelled, some failing for want
// of memory — parked plus live states never exceed the live high-water
// mark, and every state ever built is parked at the end.
func TestReqStatesBounded(t *testing.T) {
	spec := recycleSpec()
	geo, err := spec.Geometry(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Spec: spec, CapacityBytes: int64(geo.LargePageBytes) * 256,
		TokensPerPage: 2, EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var live []*Sequence
	highWater, started := 0, 0
	nextID := RequestID(1)
	drop := func(i int, cache bool) {
		m.Release(live[i], cache)
		live = append(live[:i], live[i+1:]...)
	}
	for now := Tick(1); started < 5000; now++ {
		switch op := rng.Intn(8); {
		case op < 3 && len(live) < 12: // new request
			s := recycleSeq(nextID, 1+rng.Intn(40))
			nextID++
			started++
			if err := serve(m, s, now); err != nil {
				m.Release(s, false)
				continue
			}
			live = append(live, s)
		case op == 3 && len(live) > 0 && len(live) < 12: // fork
			parent := live[rng.Intn(len(live))]
			child := &Sequence{ID: nextID, Tokens: append([]Token(nil), parent.Tokens...)}
			nextID++
			started++
			if err := m.Fork(parent, child, now); err != nil {
				continue // out of memory mid-fork: Fork released the child
			}
			live = append(live, child)
		case op == 4 && len(live) > 0: // decode step
			s := live[rng.Intn(len(live))]
			s.Tokens = append(s.Tokens, TextToken(int32(rng.Intn(997)+1)))
			if err := m.Reserve(s, len(s.Tokens), now); err != nil {
				s.Tokens = s.Tokens[:len(s.Tokens)-1]
				continue
			}
			m.Commit(s, len(s.Tokens), now)
		case op >= 5 && len(live) > 0: // finish or cancel
			drop(rng.Intn(len(live)), op != 7)
		}
		highWater = max(highWater, len(m.reqs))
		if n := len(m.spareReqs) + len(m.reqs); n > highWater {
			t.Fatalf("tick %d: %d parked + %d live states exceed the live high-water mark %d",
				now, len(m.spareReqs), len(m.reqs), highWater)
		}
		if now%64 == 0 {
			audit(t, m)
		}
	}
	for len(live) > 0 {
		drop(0, true)
	}
	audit(t, m)
	if len(m.reqs) != 0 || len(m.spareReqs) != highWater {
		t.Fatalf("at drain: %d live, %d parked; want 0 and the high-water mark %d", len(m.reqs), len(m.spareReqs), highWater)
	}
}
