package core

import (
	"slices"
	"testing"

	"jenga/internal/model"
)

// steadyState is the admission charge as it was before shared prefix
// pages were counted once — the whole steady-state footprint of the
// sequence, whatever is resident. Footprint must equal it whenever
// nothing is in use.
func steadyState(m *Jenga, seq *Sequence) int64 {
	var total int64
	for _, g := range m.groups {
		if !g.appliesTo(seq) {
			continue
		}
		proj := countScope(g, seq.Tokens)
		if proj == 0 {
			continue
		}
		pages := (proj + g.tpp - 1) / g.tpp
		switch g.spec.Kind {
		case model.Mamba:
			pages = 1
			if m.cfg.EnablePrefixCache {
				pages += proj / g.spec.Checkpoint()
			}
		case model.SlidingWindow, model.PyramidWindow:
			pages = (min(proj, g.spec.Window)+g.tpp-1)/g.tpp + 1
		}
		total += int64(pages) * int64(g.smallBytes)
	}
	return total
}

// chargeSeq builds a prompt of images×perImage image tokens followed by
// text, content a function of (salt, position).
func chargeSeq(id RequestID, tag string, salt, images, perImage, text int) *Sequence {
	s := &Sequence{ID: id, Tag: tag}
	for i := 0; i < images*perImage; i++ {
		s.Tokens = append(s.Tokens, ImageToken(int32(salt*7919+i)%100000+1))
	}
	for i := 0; i < text; i++ {
		s.Tokens = append(s.Tokens, TextToken(int32(salt*104729+i)%100000+1))
	}
	return s
}

// TestFootprintColdIsSteadyState: with no request live — on a new
// manager, and on one whose cache holds a finished request's pages —
// Footprint is the steady-state formula, for every model of the zoo and
// each of its tags.
func TestFootprintColdIsSteadyState(t *testing.T) {
	names := make([]string, 0, len(model.Registry))
	for name := range model.Registry {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		spec := model.Registry[name]()
		geo, err := spec.Geometry(model.LCMPage, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tags := []string{""}
		for _, g := range spec.Groups {
			if !slices.Contains(tags, g.Tag) {
				tags = append(tags, g.Tag)
			}
		}
		perImage := 16
		if spec.Vision != nil && spec.Vision.TokensPerImage > 0 {
			perImage = spec.Vision.TokensPerImage
		}
		for _, cache := range []bool{true, false} {
			m, err := New(Config{Spec: spec, CapacityBytes: 96 * int64(geo.LargePageBytes), EnablePrefixCache: cache, RequestAware: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for ti, tag := range tags {
				for si, shape := range [][2]int{{0, 1}, {0, 200}, {1, 90}, {0, 5000}} {
					seq := chargeSeq(RequestID(1+ti*10+si), tag, 1+si, shape[0], perImage, shape[1])
					if got, want := m.Footprint(seq), steadyState(m, seq); got != want {
						t.Errorf("%s tag %q cache %v, cold, %d+%d tokens: Footprint %d, steady state %d", name, tag, cache, shape[0]*perImage, shape[1], got, want)
					}
					m.Release(seq, false)
					if shape[1] > 1000 {
						continue
					}
					// The same prompt served and finished: cached, not in use.
					if err := serve(m, seq, 1); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					m.Release(seq, true)
					again := chargeSeq(seq.ID+100, tag, 1+si, shape[0], perImage, shape[1]+40)
					if got, want := m.Footprint(again), steadyState(m, again); got != want {
						t.Errorf("%s tag %q cache %v, predecessor cached: Footprint %d, steady state %d", name, tag, cache, got, want)
					}
					m.Release(again, false)
				}
			}
			audit(t, m)
			if len(m.hashes) != 0 {
				t.Errorf("%s: %d block-hash records outlived their requests", name, len(m.hashes))
			}
		}
	}
}

// admitWhole reads the charge of a fresh sequence, serves its whole
// prompt, and returns the charge and how much UsageTotals().Used grew.
func admitWhole(t *testing.T, m *Jenga, seq *Sequence, now Tick) (charge, grew int64) {
	t.Helper()
	charge = m.Footprint(seq)
	before := m.UsageTotals().Used
	if err := serve(m, seq, now); err != nil {
		t.Fatalf("request %d: %v", seq.ID, err)
	}
	return charge, m.UsageTotals().Used - before
}

// TestFootprintCoversWhatAdmissionAdds is the soundness law of the
// admission charge: serving a fresh sequence's whole prompt never grows
// used memory by more than the Footprint read just before — whatever of
// its prefix a sharer holds, cached or in use, and whatever the sharer
// is: running, finished, preempted to the host tier, forked. And the
// law is not met by never discounting: with a running sharer the charge
// is below the steady state wherever the model has KV to share.
func TestFootprintCoversWhatAdmissionAdds(t *testing.T) {
	const tpp = 4
	specs := []struct {
		name     string
		spec     *model.Spec
		perImage int
		policies map[string]Policy
	}{
		{"full", forkSpec(), 0, nil},
		{"textonly", textOnlySpec(), 0, nil},
		{"window", windowSpec(16), 0, nil},
		{"mamba", mambaSpec(8), 0, nil},
		{"fig6", fig6Spec(), 8, nil},
		{"vision", vlmSpec(), 8, nil},
		{"kv+mamba+vision", recycleSpec(), 4, nil},
		{"sinks", sinkSpec(), 0, map[string]Policy{"sink": sinkTestPolicy{sink: 4, window: 8}}},
	}
	for _, sc := range specs {
		for _, sharer := range []string{"none", "running", "finished", "preempted", "forked"} {
			// Prefix and suffix lengths around the window (16) and the
			// checkpoint interval (8): a suffix shorter than the window
			// keeps claimed blocks in the final window, a longer one
			// slides them all out again.
			for _, shape := range [][2]int{{40, 6}, {40, 31}, {24, 3}, {64, 64}, {9, 2}} {
				name := sc.name + "/" + sharer
				geo, err := sc.spec.Geometry(model.LCMPage, tpp)
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(Config{Spec: sc.spec, CapacityBytes: 64 * int64(geo.LargePageBytes), TokensPerPage: tpp,
					EnablePrefixCache: true, RequestAware: true, HostTierBytes: 64 * int64(geo.LargePageBytes), PolicyOverride: sc.policies})
				if err != nil {
					t.Fatal(err)
				}
				images := 0
				if sc.perImage > 0 {
					images = 2
				}
				prefix := chargeSeq(1, "", 1, images, sc.perImage, shape[0])
				cand := &Sequence{ID: 2, Tokens: append(slices.Clone(prefix.Tokens), chargeSeq(0, "", 2, 0, 0, shape[1]).Tokens...)}
				if sharer != "none" {
					if err := serve(m, prefix, 1); err != nil {
						t.Fatal(err)
					}
				}
				switch sharer {
				case "finished":
					m.Release(prefix, true)
				case "preempted":
					m.SwapOut(prefix)
				case "forked":
					forkChild(t, m, prefix, 3)
				}
				steady := steadyState(m, cand)
				charge, grew := admitWhole(t, m, cand, 2)
				if grew > charge {
					t.Errorf("%s, %d+%d tokens: used memory grew by %d, admission charged %d (steady state %d)", name, shape[0], shape[1], grew, charge, steady)
				}
				switch sharer {
				case "running", "forked":
					if charge >= steady && m.CachedPrefix(cand) >= tpp {
						t.Errorf("%s, %d+%d tokens: charge %d with %d prefix tokens attached from a live request, steady state %d", name, shape[0], shape[1], charge, m.CachedPrefix(cand), steady)
					}
				default:
					if charge != steady {
						t.Errorf("%s, %d+%d tokens: charge %d with nothing in use, steady state %d", name, shape[0], shape[1], charge, steady)
					}
				}
				audit(t, m)
			}
		}
	}
}

// TestFootprintHashesOnce: however often a waiting request is probed,
// looked up and finally claimed, its blocks are hashed once — the
// record holds exactly what the reference hashing of the whole sequence
// gives, per class, and only appended tokens are folded in afterwards.
func TestFootprintHashesOnce(t *testing.T) {
	const tpp = 4
	m := newMgr(t, recycleSpec(), 1<<20, tpp, true)
	seq := recycleSeq(5, 43)
	m.Footprint(seq)
	sh := m.hashes[seq.ID]
	check := func() {
		t.Helper()
		if sh != m.hashes[seq.ID] || sh.n != len(seq.Tokens) {
			t.Fatalf("record covers %d of %d tokens", sh.n, len(seq.Tokens))
		}
		for ci, c := range m.hashClasses {
			proj := projectInto(nil, seq.Tokens, c.scope != model.ScopeText, c.scope != model.ScopeImage)
			if want := extendBlockHashes(nil, proj, c.stride); !slices.Equal(sh.c[ci].hashes, want) {
				t.Fatalf("class %d (scope %v, stride %d): hashes %x, reference %x", ci, c.scope, c.stride, sh.c[ci].hashes, want)
			}
		}
	}
	check()
	first := slices.Clone(sh.c[0].hashes)
	m.Lookup(seq)
	if err := serve(m, seq, 1); err != nil {
		t.Fatal(err)
	}
	check()
	for i := 0; i < 9; i++ {
		extend(t, m, seq, Tick(2+i))
		m.Lookup(seq)
		check()
	}
	if !slices.Equal(sh.c[0].hashes[:len(first)], first) {
		t.Fatal("appending tokens rewrote block hashes")
	}
	// A truncated sequence is not an extension: hashed afresh.
	seq.Tokens = seq.Tokens[:17]
	m.Lookup(seq)
	check()
	m.Release(seq, true)
	if len(m.hashes) != 0 || m.spareHashes != sh {
		t.Fatal("Release did not park the record")
	}
	audit(t, m)
}
