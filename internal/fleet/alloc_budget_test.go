package fleet

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"jenga/internal/core"
	"jenga/internal/model"
)

// TestDirectoryChurnZeroAlloc: a block registered, looked up and
// invalidated costs the directory a table probe and a bit, never an
// object — at constant live size, across four holders and two groups,
// with most blocks held by more than one replica.
func TestDirectoryChurnZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	const window, batch = 512, 4
	d := NewDirectory()
	groups := []string{"kv", "win"}
	hashes := make([]uint64, batch)
	fill := func(k uint64) {
		for i := range hashes {
			hashes[i] = (k*batch + uint64(i)) * 0x9E3779B97F4A7C15
		}
	}
	var k uint64
	churn := func() {
		k++
		g := groups[k%2]
		fill(k)
		d.Register(int(k%4), g, hashes)
		d.Register(int((k+1)%4), g, hashes)
		if r, ok := d.Lookup(g, hashes[0], int(k%4)); !ok || r != int((k+1)%4) {
			t.Fatalf("Lookup = %d/%v, want the other holder %d", r, ok, (k+1)%4)
		}
		if k > window {
			fill(k - window)
			d.Invalidate(int((k-window)%4), g, hashes)
			d.Invalidate(int((k-window+1)%4), g, hashes)
		}
	}
	for i := 0; i < 8*window; i++ {
		churn()
	}
	if got := d.len(); got != 2*batch*window {
		t.Fatalf("Len = %d, want the constant %d", got, 2*batch*window)
	}
	if allocs := testing.AllocsPerRun(2*window, churn); allocs != 0 {
		t.Fatalf("directory churn allocates %.2f objects per iteration, want 0", allocs)
	}
	if got := d.len(); got != 2*batch*window {
		t.Fatalf("Len = %d after the window, want the constant %d", got, 2*batch*window)
	}
}

// hybridSpec is a full-attention group over a Mamba group: two small
// kv pages or one state to the large page.
func hybridSpec() *model.Spec {
	return &model.Spec{
		Name: "hybrid", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
			{Name: "ssm", Kind: model.Mamba, Layers: 1, StateBytes: 1024, CheckpointEvery: 8},
		},
	}
}

func newJenga(t *testing.T, spec *model.Spec, hostPages int, backed bool) *core.Jenga {
	t.Helper()
	geo, err := spec.Geometry(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Config{
		Spec: spec, CapacityBytes: int64(64 * geo.LargePageBytes), TokensPerPage: 4,
		EnablePrefixCache: true, RequestAware: true, Backed: backed,
		HostTierBytes: int64(hostPages * geo.LargePageBytes),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tokensOf is n tokens of one content family.
func tokensOf(family, n int) []core.Token {
	toks := make([]core.Token, n)
	for i := range toks {
		toks[i] = core.Token{ID: int32(family*10_000 + i + 1)}
	}
	return toks
}

// serveAndSwap computes toks on m and swaps the request out, leaving
// its pages in m's tier (and the directory m's observer feeds).
func serveAndSwap(t *testing.T, m *core.Jenga, id int64, toks []core.Token, now core.Tick) {
	t.Helper()
	seq := &core.Sequence{ID: core.RequestID(id), PromptLen: len(toks), Tokens: toks}
	if err := m.Reserve(seq, len(toks), now); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, len(toks), now)
	if pages, _ := m.SwapOut(seq); pages == 0 {
		t.Fatal("SwapOut spilled nothing")
	}
}

// failFrom fails every transfer out of one replica.
type failFrom int

func (f failFrom) FailTransfer(src, dst int) bool { return src == int(f) }

// allocsOf counts the heap objects one call of f allocates, the way
// testing.AllocsPerRun does but without its warm-up call and its
// repeats: the fetches measured below are not repeatable without a
// reset in between.
func allocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestFetchZeroAlloc: a warm Store.Fetch allocates nothing, whatever its
// batches come to. Replica 0 holds a 32-token prefix, replica 1 the
// 64-token prompt it opens, so a fetch of the prompt batches its first
// kv blocks under holder 0 — whose transfers all fail, three attempts
// each — and the rest, plus the Mamba checkpoint, under holder 1; a
// second prompt exists only as stale directory entries under replica 2,
// so both its batches are skipped. Between rounds the destination
// serves unrelated prompts until its small tier has forgotten the
// import, which is what makes every round the same miss.
func TestFetchZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	const dst = 3
	spec := hybridSpec()
	s := NewStore(4)
	mgrs := []*core.Jenga{newJenga(t, spec, 256, false), newJenga(t, spec, 256, false), newJenga(t, spec, 256, false), newJenga(t, spec, 8, false)}
	for i, m := range mgrs {
		if !s.Attach(i, m) {
			t.Fatalf("Attach(%d) failed", i)
		}
	}
	prompt := tokensOf(1, 65)
	serveAndSwap(t, mgrs[0], 1, prompt[:33], 1)
	serveAndSwap(t, mgrs[1], 2, prompt, 2)
	ghost := tokensOf(2, 17)
	s.dir.Register(2, "kv", []uint64{core.PrefixHash(4, ghost), core.PrefixHash(8, ghost), core.PrefixHash(12, ghost), core.PrefixHash(16, ghost)})
	s.dir.Register(2, "ssm", []uint64{core.PrefixHash(8, ghost), core.PrefixHash(16, ghost)})
	s.SetFaults(failFrom(0), 3)

	probe := &core.Sequence{PromptLen: len(prompt), Tokens: prompt}
	ghostProbe := &core.Sequence{PromptLen: len(ghost), Tokens: ghost}
	const warm, rounds = 6, 32
	var total uint64
	for round := 0; round < warm+rounds; round++ {
		now := core.Tick(10 + round)
		// Push the previous round's import out of the destination's tier.
		serveAndSwap(t, mgrs[dst], int64(100+round), tokensOf(10+round, 65), now)
		if p := mgrs[dst].Lookup(probe); p != 0 {
			t.Fatalf("round %d: destination still holds %d tokens of the prompt", round, p)
		}
		mgrs[dst].Release(probe, false)
		probe.ID, ghostProbe.ID = core.RequestID(1000+round), core.RequestID(2000+round)
		var fr, gr FetchReport
		var ok, failed, ssmOK int
		allocs := allocsOf(func() {
			fr = s.Fetch(dst, probe, now)
			for _, hr := range fr.Holders {
				switch {
				case hr.Outcome == FetchOK && hr.Group == "ssm":
					ssmOK++
					ok++
				case hr.Outcome == FetchOK:
					ok++
				case hr.Outcome == FetchFailed:
					failed++
				}
			}
			gr = s.Fetch(dst, ghostProbe, now)
			// The engine's part: a request the manager was shown leaves.
			mgrs[dst].Release(probe, false)
			mgrs[dst].Release(ghostProbe, false)
		})
		if ok < 2 || ssmOK != 1 || failed != 1 || fr.Retries != 2 || fr.Tokens == 0 {
			t.Fatalf("round %d: prompt fetch %+v: want kv and ssm batches from holder 1 and a failed one from holder 0", round, fr)
		}
		if gr.Skipped != 2 || gr.Fetched != 0 || gr.Bytes != 0 {
			t.Fatalf("round %d: ghost fetch %+v: want two skipped batches", round, gr)
		}
		if round >= warm {
			total += allocs
		}
	}
	if total != 0 {
		t.Fatalf("warm Fetch allocated %d objects over %d rounds, want 0", total, rounds)
	}
}

// TestRetriedImportSameBytes: a transfer that lands on its third
// attempt imports exactly what the holder exported once, before the
// first — the destination tier's bytes equal the holder's block for
// block, in buffers of its own.
func TestRetriedImportSameBytes(t *testing.T) {
	spec := storeSpec()
	s := NewStore(2)
	mgrs := []*core.Jenga{newJenga(t, spec, 256, true), newJenga(t, spec, 256, true)}
	for i, m := range mgrs {
		if !s.Attach(i, m) {
			t.Fatalf("Attach(%d) failed", i)
		}
	}
	prompt := tokensOf(3, 33)
	serveAndSwap(t, mgrs[0], 1, prompt, 1)
	hashes := make([]uint64, 8)
	for k := range hashes {
		hashes[k] = core.PrefixHash(4*(k+1), prompt)
	}
	// Noise over the holder's tier copy, written through the export
	// view: every block's bytes differ.
	held, ok := mgrs[0].ExportPrefix("kv", hashes)
	if !ok {
		t.Fatal("holder tier holds nothing of the prompt")
	}
	rng := rand.New(rand.NewSource(5))
	for _, b := range held.Blocks {
		rng.Read(b.Data)
	}

	s.SetFaults(&scriptedFaults{fails: 2}, 3)
	fr := s.Fetch(1, &core.Sequence{ID: 2, PromptLen: len(prompt), Tokens: prompt}, 2)
	if fr.Fetched != 1 || fr.Retries != 2 || len(fr.Holders) != 1 || fr.Holders[0].Attempts != 3 {
		t.Fatalf("fetch report %+v: want one batch landing on its third attempt", fr)
	}
	got, ok := mgrs[1].ExportPrefix("kv", hashes)
	if !ok {
		t.Fatal("destination tier holds nothing of the prompt")
	}
	want, ok := mgrs[0].ExportPrefix("kv", hashes)
	if !ok || len(want.Blocks) != len(hashes) || len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("holder exports %d blocks, destination %d, want %d each", len(want.Blocks), len(got.Blocks), len(hashes))
	}
	for i, w := range want.Blocks {
		g := got.Blocks[i]
		if g.Hash != w.Hash || g.Filled != w.Filled || g.Priority != w.Priority {
			t.Fatalf("block %d: destination %+v, holder %+v", i, g, w)
		}
		if len(w.Data) == 0 || bytes.Equal(w.Data, make([]byte, len(w.Data))) {
			t.Fatalf("block %d: holder exported no bytes", i)
		}
		if !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("block %d: imported bytes differ from the holder's", i)
		}
		if &g.Data[0] == &w.Data[0] {
			t.Fatalf("block %d: destination tier shares the holder's buffer", i)
		}
	}
}
