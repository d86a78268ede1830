package core

import (
	"cmp"
	"slices"
	"testing"

	"jenga/internal/model"
)

// steadyState is the admission charge as it was before shared prefix
// pages were counted once — the whole steady-state footprint of the
// sequence, whatever is resident. Footprint must equal it whenever
// nothing is in use.
func steadyState(m *Jenga, seq *Sequence) int64 { return overrideSteady(m, seq, nil) }

// overrideSteady is steadyState with the groups policies names charged
// by their policy rather than their kind: the live span above the
// policy's horizon, a page of slack for the block the horizon cuts
// (every override here slides), and the always-live head pages below
// it.
func overrideSteady(m *Jenga, seq *Sequence, policies map[string]Policy) int64 {
	var total int64
	for _, g := range m.groups {
		if !g.appliesTo(seq) {
			continue
		}
		proj := countScope(g, seq, 0, seq.Len())
		if proj == 0 {
			continue
		}
		pages := (proj + g.tpp - 1) / g.tpp
		if pol, ok := policies[g.spec.Name]; ok {
			horizon := pol.FreeBelow(proj)
			pages = (proj-horizon+g.tpp-1)/g.tpp + 1
			if k, ok := pol.(KeepAlive); ok {
				pages += min((k.KeptBelow(proj)+g.tpp-1)/g.tpp, horizon/g.tpp)
			}
		} else {
			switch g.spec.Kind {
			case model.Mamba:
				pages = 1
				if m.cfg.EnablePrefixCache {
					pages += proj / g.spec.Checkpoint()
				}
			case model.SlidingWindow, model.PyramidWindow:
				pages = (min(proj, g.spec.Window)+g.tpp-1)/g.tpp + 1
			}
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
		geo, err := spec.Geometry(16)
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
			if len(m.reqs) != 0 {
				t.Errorf("%s: %d request states outlived their requests", name, len(m.reqs))
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
// is: running, finished, preempted to the host tier, forked — and
// whatever policy a group is given in place of its kind's: an
// attention-sink head of several pages, a window wider than the one
// declared. And the law is not met by never discounting: with a running
// sharer the charge is below the steady state wherever the model has KV
// to share.
func TestFootprintCoversWhatAdmissionAdds(t *testing.T) {
	// The custom_policy example's shape: a 1,024-token window declared
	// and kept, a 64-token sink, 16 tokens a page, a 4,000-token prompt.
	example := sinkSpec()
	example.Groups[1].Window = 1024
	specs := []struct {
		name     string
		spec     *model.Spec
		perImage int
		policies map[string]Policy
		tpp      int      // 0: 4
		pages    int      // large pages of device memory and of host tier, 0: 64
		shapes   [][2]int // prefix and suffix lengths, nil: the shapes below
	}{
		{name: "full", spec: forkSpec()},
		{name: "textonly", spec: textOnlySpec()},
		{name: "window", spec: windowSpec(16)},
		{name: "mamba", spec: mambaSpec(8)},
		{name: "fig6", spec: fig6Spec(), perImage: 8},
		{name: "vision", spec: vlmSpec(), perImage: 8},
		{name: "kv+mamba+vision", spec: recycleSpec(), perImage: 4},
		{name: "sinks", spec: sinkSpec(), policies: map[string]Policy{"sink": sinkTestPolicy{sink: 4, window: 8}}},
		{name: "multi-page sink", spec: sinkSpec(), policies: map[string]Policy{"sink": sinkTestPolicy{sink: 16, window: 8}}},
		{name: "wider window", spec: sinkSpec(), policies: map[string]Policy{"sink": WindowPolicy{Window: 32}}},
		{name: "custom_policy example", spec: example, policies: map[string]Policy{"sink": sinkTestPolicy{sink: 64, window: 1024}},
			tpp: 16, pages: 1024, shapes: [][2]int{{3960, 40}, {2000, 2000}}},
	}
	for _, sc := range specs {
		tpp, pages, shapes := cmp.Or(sc.tpp, 4), int64(cmp.Or(sc.pages, 64)), sc.shapes
		if shapes == nil {
			// Prefix and suffix lengths around the window (16) and the
			// checkpoint interval (8): a suffix shorter than the window
			// keeps claimed blocks in the final window, a longer one
			// slides them all out again.
			shapes = [][2]int{{40, 6}, {40, 31}, {24, 3}, {64, 64}, {9, 2}}
		}
		for _, sharer := range []string{"none", "running", "finished", "preempted", "forked"} {
			for _, shape := range shapes {
				name := sc.name + "/" + sharer
				geo, err := sc.spec.Geometry(tpp)
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(Config{Spec: sc.spec, CapacityBytes: pages * int64(geo.LargePageBytes), TokensPerPage: tpp,
					EnablePrefixCache: true, RequestAware: true, HostTierBytes: pages * int64(geo.LargePageBytes), PolicyOverride: sc.policies})
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
				steady := overrideSteady(m, cand, sc.policies)
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
	r := m.reqs[seq.ID]
	sh := &r.h
	check := func() {
		t.Helper()
		if r != m.reqs[seq.ID] || sh.n != len(seq.Tokens) {
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
	if len(m.reqs) != 0 || m.spareReqs[len(m.spareReqs)-1] != r {
		t.Fatal("Release did not park the record")
	}
	audit(t, m)
}

// TestFootprintCountsImagesOnce: on llava-ov — text KV plus a
// vision-embedding cache, so Footprint projects the sequence onto an
// image-scoped group — a request's Footprint at every point of its life
// equals the answer of a scan over the whole sequence, while its record
// counts each token's modality once: before admission, between chunks
// of a chunked prefill that encodes the images and drops each chunk's
// consumed embeddings, through a decode that appends image tokens as
// well as text, and for a fork child and its parent after the fork. (A jengadebug build recounts the sequence at
// every read of the record's count.)
func TestFootprintCountsImagesOnce(t *testing.T) {
	spec := model.LLaVAOneVision7B()
	m := newMgr(t, spec, 2<<30, 16, true)
	seq := chargeSeq(1, "", 3, 4, spec.Vision.TokensPerImage, 70)
	seq.PromptLen = len(seq.Tokens)
	check := func(what string, s *Sequence) {
		t.Helper()
		scan := wholeSeq(s, nil)
		if got, want := m.Footprint(s), m.footprint(&scan); got != want {
			t.Fatalf("%s: request %d's Footprint is %d, a scan of its sequence gives %d", what, s.ID, got, want)
		}
		if r, images := m.reqs[s.ID], CountImages(s.Span(0, s.Len())); r != nil && r.imagesOf > 0 && (r.imagesOf != s.Len() || r.images != images) {
			t.Fatalf("%s: request %d's record counts %d image tokens among %d, want %d among %d", what, s.ID, r.images, r.imagesOf, images, s.Len())
		}
	}
	check("before admission", seq) // no record yet: a scan, and the probe makes one
	check("probed again", seq)
	if r := m.reqs[seq.ID]; r == nil || r.imagesOf != seq.Len() {
		t.Fatal("the second probe did not count the sequence's images into the record")
	}
	now := Tick(1)
	if err := m.EncodeImages(seq, len(seq.Tokens), now); err != nil {
		t.Fatal(err)
	}
	check("encoded", seq)
	for upTo := 512; ; upTo += 512 {
		upTo = min(upTo, len(seq.Tokens))
		now++
		if err := m.Reserve(seq, upTo, now); err != nil {
			t.Fatal(err)
		}
		m.Commit(seq, upTo, now)
		m.DropImages(seq, upTo)
		check("prefill chunk", seq)
		if upTo == len(seq.Tokens) {
			break
		}
	}
	// Decode appends text, and now and then an image token, whose
	// embedding is encoded first: the record's count must take it in.
	decode := func(s *Sequence, steps int) {
		t.Helper()
		for i := 0; i < steps; i++ {
			now++
			tok := TextToken(int32(s.ID)*1000 + int32(len(s.Out)) + 1)
			if i%4 == 3 {
				tok = ImageToken(tok.Content())
			}
			s.Out = append(s.Out, tok)
			if err := m.EncodeImages(s, s.Len(), now); err != nil {
				t.Fatal(err)
			}
			if err := m.Reserve(s, s.Len(), now); err != nil {
				t.Fatal(err)
			}
			m.Commit(s, s.Len(), now)
			check("decode", s)
		}
	}
	decode(seq, 20)
	child := &Sequence{ID: 2, PromptLen: seq.PromptLen, Tokens: seq.Tokens, Out: slices.Clone(seq.Out)}
	now++
	if err := m.Fork(seq, child, now); err != nil {
		t.Fatal(err)
	}
	check("forked child", child)
	check("fork parent", seq)
	decode(child, 10)
	decode(seq, 5)
	m.Release(child, true)
	m.Release(seq, true)
	audit(t, m)
}
