package fleet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"jenga/internal/core"
	"jenga/internal/model"
)

// pinnedSpec has three page sizes — full attention, a sliding window
// and a Mamba state — so the LCM geometry carves 6, 3 and 2 small
// pages per large page and a fetch batches over several groups.
func pinnedSpec() *model.Spec {
	return &model.Spec{
		Name: "pinned", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
			{Name: "win", Kind: model.SlidingWindow, Layers: 2, BytesPerToken: 128, Window: 16},
			{Name: "ssm", Kind: model.Mamba, Layers: 1, StateBytes: 1536, CheckpointEvery: 8},
		},
	}
}

// seededFaults fails a fixed share of transfer attempts, drawn from
// its own seeded stream.
type seededFaults struct{ rng *rand.Rand }

func (f *seededFaults) FailTransfer(src, dst int) bool { return f.rng.Intn(3) == 0 }

// TestFetchReportPinned runs a seeded four-replica script — serve a
// prompt from one of a few prefix families through the fleet miss path,
// then cache-release or swap it out; crash and restart a replica now
// and then; plant a stale directory entry now and then; fail a third
// of the transfer attempts over the middle of the run — on tiers small
// enough to evict all the time, and hashes everything the store reports
// after every operation: each FetchReport with its holder batches,
// every replica's TierStats, the StoreStats and the directory's entry
// counts. The constant was captured at the commit before the directory
// became a bitmask map, the tier a slab and the transfer path
// scratch-backed, with this same file: those three are replacements of
// data structures, and nothing a caller can observe may move.
func TestFetchReportPinned(t *testing.T) {
	const (
		replicas = 4
		tpp      = 4
		steps    = 600
		want     = uint64(0xd9d8d5877cd41745)
	)
	spec := pinnedSpec()
	geo, err := spec.Geometry(model.LCMPage, tpp)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(replicas)
	mgrs := make([]*core.Jenga, replicas)
	for i := range mgrs {
		m, err := core.New(core.Config{
			Spec: spec, CapacityBytes: int64(24 * geo.LargePageBytes), TokensPerPage: tpp,
			EnablePrefixCache: true, RequestAware: true,
			HostTierBytes: int64(10 * geo.LargePageBytes),
		})
		if err != nil {
			t.Fatal(err)
		}
		mgrs[i] = m
		if !s.Attach(i, m) {
			t.Fatalf("Attach(%d) failed", i)
		}
	}

	h := fnv.New64a()
	rng := rand.New(rand.NewSource(20))
	prompt := func(family, prefix, suffix, salt int) []core.Token {
		toks := make([]core.Token, 0, prefix+suffix)
		for i := 0; i < prefix; i++ {
			toks = append(toks, core.Token{ID: int32(family*1000 + i + 1)})
		}
		for i := 0; i < suffix; i++ {
			toks = append(toks, core.Token{ID: int32(500_000 + salt*16 + i)})
		}
		return toks
	}
	var outcomes [3]int
	for step := 1; step <= steps; step++ {
		now := core.Tick(step)
		r := rng.Intn(replicas)
		switch step {
		case steps / 3:
			s.SetFaults(&seededFaults{rng: rand.New(rand.NewSource(21))}, 3)
		case 2 * steps / 3:
			s.SetFaults(nil, 1)
		}
		switch k := rng.Intn(20); {
		case k == 0: // crash and cold restart
			fmt.Fprintf(h, "crash %d dropped %d\n", r, s.Crash(r))
			if err := mgrs[r].CrashReset(); err != nil {
				t.Fatal(err)
			}
		case k == 1: // a stale entry: the directory names a holder with nothing to export
			toks := prompt(90+rng.Intn(2), 16, 0, 0)
			s.Directory().Register(r, "kv", []uint64{core.PrefixHash(toks, 4), core.PrefixHash(toks, 8), core.PrefixHash(toks, 12), core.PrefixHash(toks, 16)})
			s.Directory().Register(r, "win", []uint64{core.PrefixHash(toks, 4), core.PrefixHash(toks, 8), core.PrefixHash(toks, 12), core.PrefixHash(toks, 16)})
			s.Directory().Register(r, "ssm", []uint64{core.PrefixHash(toks, 8), core.PrefixHash(toks, 16)})
			probe := &core.Sequence{ID: core.RequestID(step), Tokens: append(toks, core.Token{ID: 7})}
			fr := s.Fetch((r+1)%replicas, probe, now)
			hashReport(h, fr, &outcomes)
		default: // serve one request through the miss path
			toks := prompt(rng.Intn(6), 16*(2+rng.Intn(3)), 1+rng.Intn(8), step)
			seq := &core.Sequence{ID: core.RequestID(step), PromptLen: len(toks), Tokens: toks}
			fr := s.Fetch(r, seq, now)
			hashReport(h, fr, &outcomes)
			if err := mgrs[r].Reserve(seq, len(toks), now); err != nil {
				fmt.Fprintf(h, "reserve: %v\n", err)
				mgrs[r].Release(seq, false)
				break
			}
			fmt.Fprintf(h, "cached %d\n", mgrs[r].CachedPrefix(seq))
			mgrs[r].Commit(seq, len(toks), now)
			if k%2 == 0 {
				pages, bytes := mgrs[r].SwapOut(seq)
				fmt.Fprintf(h, "swapout %d %d\n", pages, bytes)
			} else {
				mgrs[r].Release(seq, true)
			}
		}
		for i, m := range mgrs {
			ts := m.TierStats()
			fmt.Fprintf(h, "tier %d: %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n", i,
				ts.SwapOuts, ts.SwapIns, ts.SpilledBytes, ts.RestoredBytes, ts.RestoredTokens,
				ts.HostEvictions, ts.HostUsed, ts.HostCapacity,
				ts.PeerExports, ts.PeerImports, ts.PeerExportBytes, ts.PeerImportBytes,
				ts.PeerSkips, ts.PeerFails)
			fmt.Fprintf(h, "holder %d: %d\n", i, s.Directory().HolderLen(i))
		}
		st := s.Stats()
		fmt.Fprintf(h, "store: %d %d %d %d %d dir %d\n", st.Fetched, st.Skipped, st.Failed, st.Retries, st.MaxAttempts, s.Directory().Len())
	}
	// The script only pins something if it went everywhere: every batch
	// outcome, retries, and tier evictions on the surviving tiers.
	var evictions int64
	for _, m := range mgrs {
		evictions += m.TierStats().HostEvictions
	}
	if st := s.Stats(); outcomes[FetchOK] < 20 || outcomes[FetchSkipped] < 5 || outcomes[FetchFailed] < 3 || st.Retries < 5 || evictions < 20 {
		t.Fatalf("script too light: outcomes %v, store %+v, %d tier evictions", outcomes, st, evictions)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("fleet script hash = %#x, want %#x: a fetch report, tier counter, store counter or directory count moved", got, want)
	}
}

// hashReport folds one FetchReport, holder batches included, into h.
func hashReport(h interface{ Write([]byte) (int, error) }, fr FetchReport, outcomes *[3]int) {
	fmt.Fprintf(h, "fetch: %d %d %d | %d %d %d %d\n", fr.Tokens, fr.Bytes, fr.Imported, fr.Fetched, fr.Skipped, fr.Failed, fr.Retries)
	for _, hr := range fr.Holders {
		outcomes[hr.Outcome]++
		fmt.Fprintf(h, "  %d %s %d %s %q %d %d\n", hr.Holder, hr.Group, hr.Blocks, hr.Outcome, hr.Reason, hr.Attempts, hr.Bytes)
	}
}
