package core

import (
	"errors"
	"slices"
	"testing"

	"jenga/internal/arena"
	"jenga/internal/model"
)

// forkSpec is a single full-attention group — the simplest geometry
// for counting shared pages exactly.
func forkSpec() *model.Spec {
	return &model.Spec{
		Name: "fork", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128},
		},
	}
}

// commitSeq reserves and commits the sequence's full token list.
func commitAll(t *testing.T, m *Jenga, s *Sequence, now Tick) {
	t.Helper()
	if err := m.Reserve(s, len(s.Tokens), now); err != nil {
		t.Fatal(err)
	}
	m.Commit(s, len(s.Tokens), now)
}

// forkChild forks child off the committed parent.
func forkChild(t *testing.T, m *Jenga, parent *Sequence, id RequestID) *Sequence {
	t.Helper()
	child := &Sequence{ID: id, PromptLen: parent.PromptLen,
		Tokens: append([]Token(nil), parent.Tokens...)}
	if err := m.Fork(parent, child, 1); err != nil {
		t.Fatal(err)
	}
	return child
}

// extend appends one token with content unique to (seq, position) and
// commits it — the divergent decode step of one branch.
func extend(t *testing.T, m *Jenga, s *Sequence, now Tick) {
	t.Helper()
	pos := len(s.Tokens)
	s.Tokens = append(s.Tokens, Token{ID: int32(uint64(s.ID)*131+uint64(pos))%50000 + 1})
	if err := m.Reserve(s, len(s.Tokens), now); err != nil {
		t.Fatal(err)
	}
	m.Commit(s, len(s.Tokens), now)
}

// TestForkSharesWithoutAllocation: forking costs no device memory —
// the child rides the parent's pages, visible only in SharedBytes.
func TestForkSharesWithoutAllocation(t *testing.T) {
	m := newMgr(t, forkSpec(), 1<<20, 2, true)
	parent := textSeq(1, 16)
	commitAll(t, m, parent, 1)
	before := m.UsageTotals()
	if before.SharedBytes != 0 {
		t.Fatalf("unforked SharedBytes = %d", before.SharedBytes)
	}

	child := forkChild(t, m, parent, 2)
	audit(t, m)
	after := m.UsageTotals()
	if after.Used != before.Used || after.Free != before.Free {
		t.Errorf("fork changed device memory: used %d->%d free %d->%d",
			before.Used, after.Used, before.Free, after.Free)
	}
	// 16 tokens, tpp 2 → 8 pages, each now referenced twice.
	g := m.groups[0]
	if want := 8 * int64(g.smallBytes); after.SharedBytes != want {
		t.Errorf("SharedBytes = %d, want %d", after.SharedBytes, want)
	}
	if st := m.Stats(); st.Forks != 1 || st.CowCopies != 0 {
		t.Errorf("stats forks/cowCopies = %d/%d, want 1/0", st.Forks, st.CowCopies)
	}
	if got := m.CachedPrefix(child); got != 16 {
		t.Errorf("child CachedPrefix = %d, want 16", got)
	}
}

// TestForkCopyOnWrite: the first divergent write on a shared partial
// block privatizes it, charging the copy; complete shared blocks stay
// shared.
func TestForkCopyOnWrite(t *testing.T) {
	m, err := New(Config{
		Spec: forkSpec(), CapacityBytes: 1 << 20, TokensPerPage: 2,
		EnablePrefixCache: true, RequestAware: true, Backed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 15 tokens → blocks 0..6 complete, block 7 holds one token.
	parent := textSeq(1, 15)
	commitAll(t, m, parent, 1)
	child := forkChild(t, m, parent, 2)
	shared := m.UsageTotals().SharedBytes

	// Child's first decode lands in shared partial block 7 → CoW.
	extend(t, m, child, 2)
	audit(t, m)
	g := m.groups[0]
	st := m.Stats()
	if st.CowCopies != 1 {
		t.Fatalf("CowCopies = %d, want 1", st.CowCopies)
	}
	if want := int64(g.slotUnit); st.CowCopyBytes != want {
		t.Errorf("CowCopyBytes = %d, want %d (one filled slot)", st.CowCopyBytes, want)
	}
	if got := m.DrainCopyBytes(); got != st.CowCopyBytes {
		t.Errorf("DrainCopyBytes = %d, want %d", got, st.CowCopyBytes)
	}
	if got := m.DrainCopyBytes(); got != 0 {
		t.Errorf("second DrainCopyBytes = %d, want 0", got)
	}
	// One page went private; the complete blocks remain shared.
	if got, want := m.UsageTotals().SharedBytes, shared-int64(g.smallBytes); got != want {
		t.Errorf("SharedBytes after CoW = %d, want %d", got, want)
	}

	// The parent's divergent decode now writes its own (still-shared →
	// second CoW? No: parent's block 7 is no longer shared, ref fell
	// back to 1 when the child copied — no further copy.
	extend(t, m, parent, 3)
	audit(t, m)
	if st := m.Stats(); st.CowCopies != 1 {
		t.Errorf("parent extension copied again: CowCopies = %d", st.CowCopies)
	}
}

// TestForkLifecycleRefcounts drives every release-shaped path against
// a live fork sibling: eviction pressure, host-tier spill, both
// preemption flavors and cancellation must all respect the nonzero
// refcount — the survivor keeps decoding on intact pages afterwards.
func TestForkLifecycleRefcounts(t *testing.T) {
	cases := []struct {
		name string
		op   func(t *testing.T, m *Jenga, parent, child *Sequence)
	}{
		{"finish parent", func(t *testing.T, m *Jenga, parent, child *Sequence) {
			m.Release(parent, true) // normal completion
		}},
		{"cancel parent", func(t *testing.T, m *Jenga, parent, child *Sequence) {
			m.Release(parent, false) // cancellation frees nothing shared
		}},
		{"preempt parent recompute", func(t *testing.T, m *Jenga, parent, child *Sequence) {
			m.Release(parent, true)
			// Re-admission: the shared prefix is still claimable (the
			// child holds the pages live and their hashes published).
			if err := m.Reserve(parent, len(parent.Tokens), 5); err != nil {
				t.Fatal(err)
			}
			if got := m.CachedPrefix(parent); got < 14 {
				t.Errorf("re-admission claimed %d of 15 shared tokens", got)
			}
			m.Commit(parent, len(parent.Tokens), 5)
		}},
		{"preempt parent swap", func(t *testing.T, m *Jenga, parent, child *Sequence) {
			// Swap-out must not spill pages the child still uses
			// (spillLarge skips any large page with used smalls).
			m.SwapOut(parent)
		}},
		{"evict under pressure", func(t *testing.T, m *Jenga, parent, child *Sequence) {
			m.Release(parent, true)
			// Fill the pool: eviction may take every cached page but
			// never the child's used (shared) ones.
			hog := textSeq(99, 80)
			hog.Tokens[0].ID = 31337
			if err := m.Reserve(hog, len(hog.Tokens), 6); err != nil {
				t.Fatal(err)
			}
			m.Commit(hog, len(hog.Tokens), 6)
			m.Release(hog, false)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(Config{
				Spec: forkSpec(), CapacityBytes: 1 << 15, TokensPerPage: 2,
				EnablePrefixCache: true, RequestAware: true, Backed: true,
				HostTierBytes: 1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			parent := textSeq(1, 15)
			commitAll(t, m, parent, 1)
			child := forkChild(t, m, parent, 2)
			extend(t, m, child, 2) // diverge: child owns its tail block
			audit(t, m)

			tc.op(t, m, parent, child)
			audit(t, m)

			// The child keeps decoding on intact pages.
			for i := 0; i < 4; i++ {
				extend(t, m, child, Tick(10+i))
			}
			audit(t, m)
			m.Release(child, true)
			if r, ok := m.reqs[parent.ID]; ok && r != nil {
				m.Release(parent, false)
			}
			audit(t, m)
			if u := m.UsageTotals(); u.SharedBytes != 0 {
				t.Errorf("SharedBytes = %d after all releases", u.SharedBytes)
			}
		})
	}
}

// TestForkMamba: finalized checkpoints are shared; the in-place-mutated
// working state (and any unfinalized checkpoint) is copied eagerly.
func TestForkMamba(t *testing.T) {
	m := newMgr(t, mambaSpec(4), 1<<20, 2, true)
	parent := textSeq(1, 9) // 2 finalized ckpts (at 4, 8) + working state
	commitAll(t, m, parent, 1)
	base := m.Stats()
	child := forkChild(t, m, parent, 2)
	audit(t, m)
	if st := m.Stats(); st.CowCopies <= base.CowCopies {
		t.Errorf("Mamba fork must eagerly copy the working state (CowCopies %d -> %d)",
			base.CowCopies, st.CowCopies)
	}
	if m.UsageTotals().SharedBytes == 0 {
		t.Error("finalized checkpoints and attention blocks should be shared")
	}
	// Both branches decode independently across checkpoint boundaries.
	for i := 0; i < 5; i++ {
		extend(t, m, parent, Tick(3+i))
		extend(t, m, child, Tick(3+i))
	}
	audit(t, m)
	m.Release(parent, true)
	m.Release(child, true)
	audit(t, m)
}

// TestForkErrors: the Fork preconditions.
func TestForkErrors(t *testing.T) {
	m := newMgr(t, forkSpec(), 1<<20, 2, true)
	parent := textSeq(1, 8)
	if err := m.Fork(parent, textSeq(2, 8), 1); err == nil {
		t.Error("fork of an unknown parent should fail")
	}
	commitAll(t, m, parent, 1)
	forkChild(t, m, parent, 2)
	if err := m.Fork(parent, textSeq(2, 8), 1); err == nil {
		t.Error("fork onto a live child ID should fail")
	}
	// An uncommitted reservation makes the parent non-quiescent.
	parent.Tokens = append(parent.Tokens, Token{ID: 42})
	if err := m.Reserve(parent, 9, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Fork(parent, textSeq(3, 9), 2); err == nil {
		t.Error("fork of a parent with an uncommitted reservation should fail")
	}
	audit(t, m)
}

// FuzzForkLifecycle drives random fork/extend/release sequences on a
// backed arena against a map-based reference of every live branch's
// committed tokens. Every committed slot of the attention group carries
// a fingerprint of its token; any sharing bug — a missing copy-on-write
// (one branch's write visible in a sibling) or a premature free
// (content lost while a sibling still holds the block) — corrupts a
// read-back. The model also has a Mamba group and a vision-embedding
// cache, and a released branch's successor (op 5) starts at once, under
// the same ID with the same content or under a new one: request state
// is recycled (takeReq), so the successor runs its prefix claim,
// copy-on-write, checkpoints and vision pages in tables a previous
// owner filled, and a reference left behind in one shows up as a
// refcount or accounting mismatch in the audit, or as a foreign
// fingerprint. Op 6 admits a fresh request that shares a live branch's
// prefix and holds the admission charge to its law: used memory grows
// by no more than the Footprint read just before, whatever the
// interleaving left in use, cached or evicted.
func FuzzForkLifecycle(f *testing.F) {
	f.Add([]byte{0, 4, 2, 0, 1, 1, 1, 0, 3, 0})
	f.Add([]byte{0, 8, 2, 0, 2, 0, 1, 1, 1, 2, 4, 0, 1, 0})
	f.Add([]byte{0, 15, 2, 0, 2, 0, 2, 0, 1, 3, 1, 2, 1, 1, 3, 2, 1, 0})
	f.Add([]byte{0, 15, 2, 0, 1, 64, 5, 0, 1, 0, 5, 1, 2, 0, 1, 65, 5, 2, 5, 3})
	f.Add([]byte{0, 9, 0, 12, 2, 1, 5, 4, 5, 1, 1, 64, 2, 0, 5, 0, 4, 0, 0, 9})
	f.Add([]byte{0, 15, 6, 0, 2, 0, 6, 73, 3, 0, 6, 130, 1, 1, 6, 201, 4, 0, 6, 7})
	// The sharer's embedding evicts the cached checkpoint its prefix
	// would have hit, between the probe and the claim.
	f.Add([]byte("1,200(2A1C2019A1B212110C0X09YX0B1000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := New(Config{
			Spec: recycleSpec(), CapacityBytes: 1 << 15, TokensPerPage: 2,
			EnablePrefixCache: true, RequestAware: true, Backed: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := m.groups[0] // full attention over every token

		// Reference model: every live branch's committed token list.
		type ref struct {
			seq *Sequence
		}
		var live []*ref
		nextID := RequestID(1)
		now := Tick(1)

		// stamp writes the fingerprint of tokens [from, to) into the
		// request's committed slots.
		stamp := func(s *Sequence, from, to int) {
			r := m.reqs[s.ID]
			rg := &r.g[0]
			for pos := from; pos < to; pos++ {
				pr := rg.pages[pos/g.tpp]
				if !pr.held {
					continue
				}
				kv, err := g.view.Kernel(0, []arena.SmallPageID{pr.id})
				if err != nil {
					t.Fatal(err)
				}
				fp := arena.TokenFingerprint(uint64(s.Tokens[pos].ID), 0, pos)
				if err := kv.WriteFingerprint(0, pos%g.tpp, fp); err != nil {
					t.Fatal(err)
				}
			}
		}
		// verify reads every live branch's committed slots back.
		verify := func() {
			for _, rf := range live {
				r := m.reqs[rf.seq.ID]
				rg := &r.g[0]
				for pos := 0; pos < r.committed; pos++ {
					pr := rg.pages[pos/g.tpp]
					if !pr.held {
						t.Fatalf("req %d: committed block %d not held", rf.seq.ID, pos/g.tpp)
					}
					kv, err := g.view.Kernel(0, []arena.SmallPageID{pr.id})
					if err != nil {
						t.Fatal(err)
					}
					got, err := kv.ReadFingerprint(0, pos%g.tpp)
					if err != nil {
						t.Fatal(err)
					}
					want := arena.TokenFingerprint(uint64(rf.seq.Tokens[pos].ID), 0, pos)
					if got != want {
						t.Fatalf("req %d pos %d: fingerprint %#x, want %#x (CoW aliasing)",
							rf.seq.ID, pos, got, want)
					}
				}
			}
		}
		drop := func(i int) { live = append(live[:i], live[i+1:]...) }
		// root serves a new n-token request (content a function of its
		// ID, so a reused ID finds its predecessor's blocks cached).
		root := func(id RequestID, n int) {
			s := recycleSeq(id, n)
			if err := serve(m, s, now); err != nil {
				m.Release(s, false)
				return
			}
			stamp(s, 0, n)
			live = append(live, &ref{seq: s})
		}

		for i := 0; i+1 < len(data) && len(live) < 24; i += 2 {
			op, arg := data[i]%7, int(data[i+1])
			now++
			switch op {
			case 0: // new root
				root(nextID, 1+arg%16)
				nextID++
			case 1: // divergent decode on one branch (arg bit 6: an image token)
				if len(live) == 0 {
					continue
				}
				j := arg % 64 % len(live)
				rf := live[j]
				pos := len(rf.seq.Tokens)
				tok := TextToken(int32((int(rf.seq.ID)*1009+pos*31)%997 + 1))
				if arg&64 != 0 {
					tok = ImageToken(tok.Content())
				}
				rf.seq.Tokens = append(rf.seq.Tokens, tok)
				err := m.EncodeImages(rf.seq, pos+1, now)
				if err == nil {
					err = m.Reserve(rf.seq, pos+1, now)
				}
				if err != nil {
					// Preempted for want of memory; an embedding may
					// already be stored, so the branch goes whole.
					m.Release(rf.seq, true)
					drop(j)
					break
				}
				m.Commit(rf.seq, pos+1, now)
				stamp(rf.seq, pos, pos+1)
			case 2: // fork
				if len(live) == 0 {
					continue
				}
				parent := live[arg%len(live)]
				child := &Sequence{ID: nextID,
					Tokens: append([]Token(nil), parent.seq.Tokens...)}
				nextID++
				if err := m.Fork(parent.seq, child, now); err != nil {
					// Only the eager Mamba copies can fail, for want of
					// memory, and then the child holds nothing.
					if _, kept := m.reqs[child.ID]; kept || !errors.Is(err, ErrNoSpace) {
						t.Fatalf("fork of quiescent parent %d: %v (child state kept: %v)", parent.seq.ID, err, kept)
					}
					break
				}
				live = append(live, &ref{seq: child})
			case 3: // finish (cache-preserving release)
				if len(live) == 0 {
					continue
				}
				j := arg % len(live)
				m.Release(live[j].seq, true)
				drop(j)
			case 4: // cancel (free release)
				if len(live) == 0 {
					continue
				}
				j := arg % len(live)
				m.Release(live[j].seq, false)
				drop(j)
			case 5: // finish, and a successor takes the state at once
				if len(live) == 0 {
					continue
				}
				j := arg % len(live)
				old := live[j].seq
				m.Release(old, arg&32 == 0)
				drop(j)
				if arg&16 == 0 {
					root(old.ID, len(old.Tokens)) // same ID, same content
				} else {
					root(nextID, 1+arg%16)
					nextID++
				}
			case 6: // admit a sharer of a live branch's prefix, charge checked
				if len(live) == 0 {
					continue
				}
				of := live[arg%8%len(live)].seq.Tokens
				s := &Sequence{ID: nextID, Tokens: slices.Clone(of[:len(of)-arg/8%len(of)])}
				nextID++
				for k := 0; k <= arg/64; k++ {
					s.Tokens = append(s.Tokens, TextToken(int32((int(s.ID)*911+k)%997+1)))
				}
				charge, before := m.Footprint(s), m.UsageTotals().Used
				if err := serve(m, s, now); err != nil {
					m.Release(s, false)
					break
				}
				if grew := m.UsageTotals().Used - before; grew > charge {
					t.Fatalf("request %d (%d tokens, %d claimed): used memory grew by %d, admission charged %d",
						s.ID, len(s.Tokens), m.CachedPrefix(s), grew, charge)
				}
				stamp(s, m.CachedPrefix(s), len(s.Tokens))
				live = append(live, &ref{seq: s})
			}
			audit(t, m)
			verify()
		}
		for _, rf := range live {
			m.Release(rf.seq, true)
		}
		audit(t, m)
		if u := m.UsageTotals(); u.SharedBytes != 0 {
			t.Fatalf("SharedBytes = %d after releasing everything", u.SharedBytes)
		}
	})
}
