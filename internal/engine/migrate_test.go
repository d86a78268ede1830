package engine

import (
	"testing"
	"time"

	"jenga/internal/core"
)

// stepToGenerated advances e until the request has produced at least
// want output tokens (first token included), via the event stream.
func stepToGenerated(t *testing.T, e *Engine, want int) {
	t.Helper()
	gen := 0
	prev := e.onEvent
	e.SetEventSink(func(ev Event) {
		if ev.Generated > gen {
			gen = ev.Generated
		}
		if prev != nil {
			prev(ev)
		}
	})
	for e.Live() && gen < want {
		if err := e.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	e.SetEventSink(prev)
	if gen < want {
		t.Fatalf("engine drained at %d generated tokens, want ≥ %d", gen, want)
	}
}

// migrateEngine builds a single-replica engine over a fresh manager.
func migrateEngine(t *testing.T, hostBytes int64) *Engine {
	t.Helper()
	spec := miniWindowSpec()
	var mgr core.Manager
	if hostBytes > 0 {
		mgr = tieredJengaFor(t, spec, 8<<20, hostBytes)
	} else {
		mgr = jengaFor(t, spec, 8<<20, true)
	}
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512, PreemptMode: PreemptSwap})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMigrateRunningRoundTrip: a mid-decode request migrates from A to
// B and finishes there; the extracted state releases every page on A,
// rides A's host tier (SwapOut), and the resumed decode on B picks up
// exactly where A stopped — token content is deterministic in
// (ID, position), so the sequence B continues is the one a never-
// migrated engine would have produced.
func TestMigrateRunningRoundTrip(t *testing.T) {
	req := textReqs(21, 1, 200, 20)[0]
	a := migrateEngine(t, 32<<20)
	var aEvents []EventType
	a.SetEventSink(func(ev Event) { aEvents = append(aEvents, ev.Type) })
	if err := a.Submit(&req); err != nil {
		t.Fatal(err)
	}
	stepToGenerated(t, a, 4)

	m, ok := a.MigrateOut(req.ID)
	if !ok {
		t.Fatal("MigrateOut missed a running request")
	}
	if m.state != migrating || m.decodesDone < 3 || m.firstToken <= 0 {
		t.Fatalf("extracted state: %+v", m)
	}
	// The newest decode token is appended at its consuming step, so the
	// sequence holds the prompt plus one token per completed decode.
	if len(m.Out) != m.decodesDone {
		t.Fatalf("extracted %d generated tokens, want %d", len(m.Out), m.decodesDone)
	}
	if a.Live() {
		t.Fatal("source still live after migrating its only request")
	}
	// Cache-preserving release: nothing stays pinned to the request.
	if u := a.cfg.Manager.Usage(); u.Used != 0 {
		t.Fatalf("source leaked held memory: %+v", u)
	}
	if ts := a.tier.TierStats(); ts.SwapOuts == 0 {
		t.Fatalf("running migration bypassed the host tier: %+v", ts)
	}
	if got := aEvents[len(aEvents)-1]; got != EventMigrated {
		t.Fatalf("last source event %v, want %v", got, EventMigrated)
	}
	if EventMigrated.Terminal() {
		t.Fatal("EventMigrated must not be terminal")
	}
	if res := a.ResultSnapshot(); res.MigratedOut != 1 || res.Finished != 0 {
		t.Fatalf("source result: %+v", res)
	}

	// A control engine runs the same request to the same point: the
	// extracted token content must be identical.
	reqC := textReqs(21, 1, 200, 20)[0]
	c := migrateEngine(t, 0)
	if err := c.Submit(&reqC); err != nil {
		t.Fatal(err)
	}
	stepToGenerated(t, c, 1+m.decodesDone)
	mc, ok := c.MigrateOut(reqC.ID)
	if !ok || len(mc.Out) != len(m.Out) {
		t.Fatalf("control extraction: ok=%v %d tokens vs %d", ok, len(mc.Out), len(m.Out))
	}
	for i := range m.Out {
		if m.Out[i] != mc.Out[i] {
			t.Fatalf("token %d diverged across engines: %v vs %v", i, m.Out[i], mc.Out[i])
		}
	}

	// Resume on B: queued event first, then the rest of the decode.
	b := migrateEngine(t, 0)
	var bQueued, bFinished bool
	b.SetEventSink(func(ev Event) {
		switch ev.Type {
		case EventQueued:
			bQueued = true
		case EventFinished:
			bFinished = true
		}
	})
	b.MigrateIn(m)
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if !bQueued || !bFinished {
		t.Fatalf("destination events: queued=%v finished=%v", bQueued, bFinished)
	}
	res := b.ResultSnapshot()
	if res.Finished != 1 || res.MigratedIn != 1 {
		t.Fatalf("destination result: %+v", res)
	}
	if len(res.PerRequest) != 1 || res.PerRequest[0].ID != req.ID {
		t.Fatalf("per-request record missing: %+v", res.PerRequest)
	}
	// TTFT continuity: the destination keeps the source's first-token
	// instant rather than re-measuring.
	if res.PerRequest[0].TTFT != m.firstToken {
		t.Fatalf("TTFT %v, want the migrated instant %v", res.PerRequest[0].TTFT, m.firstToken)
	}
	if u := b.cfg.Manager.Usage(); u.Used != 0 {
		t.Fatalf("destination leaked held memory: %+v", u)
	}
}

// TestMigrateUnstartedAndWaiting covers the two no-KV extraction paths:
// a pending (not yet arrived) request migrates pending and re-enters the
// destination's arrival queue; a waiting request migrates waiting.
func TestMigrateUnstartedAndWaiting(t *testing.T) {
	reqs := textReqs(22, 2, 150, 8)
	reqs[1].Arrival = time.Hour // never reached before migration
	a := migrateEngine(t, 0)
	for i := range reqs {
		if err := a.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := a.MigrateOut(reqs[1].ID)
	if !ok || m.state != pending {
		t.Fatalf("pending extraction: ok=%v state=%d", ok, m.state)
	}
	m.req.Arrival = 0
	b := migrateEngine(t, 0)
	b.MigrateIn(m)
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if res := b.ResultSnapshot(); res.Finished != 1 || res.MigratedIn != 1 {
		t.Fatalf("unstarted resume: %+v", res)
	}

	// Waiting: two arrivals, one running slot.
	spec := miniWindowSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(),
		Manager: jengaFor(t, spec, 8<<20, true), MaxBatchTokens: 512, MaxRunning: 1})
	if err != nil {
		t.Fatal(err)
	}
	reqs2 := textReqs(23, 2, 150, 8)
	for i := range reqs2 {
		if err := e.Submit(&reqs2[i]); err != nil {
			t.Fatal(err)
		}
	}
	stepToGenerated(t, e, 1)
	snap := e.Snapshot()
	if snap.Waiting != 1 {
		t.Fatalf("setup: %d waiting, want 1", snap.Waiting)
	}
	waitID := int64(-1)
	for _, c := range e.MigrationCandidates(nil) {
		if !c.Running {
			waitID = c.ID
		}
	}
	mw, ok := e.MigrateOut(waitID)
	if !ok || mw.state != waiting || mw.decodesDone != 0 {
		t.Fatalf("waiting extraction: ok=%v %+v", ok, mw)
	}
	// Unknown IDs are rejected everywhere.
	if _, ok := e.MigrateOut(99999); ok {
		t.Fatal("MigrateOut invented a request")
	}
	if e.Shed(99999) {
		t.Fatal("Shed invented a request")
	}
}

// TestMigrateIntoOwnTierRestores: when a migrated request lands on a
// replica whose host tier holds its pages (here: the same engine,
// after GPU-cache pressure evicted the live copies), the re-entry
// prefill claims them back through the tier instead of recomputing —
// the mechanism that makes transfer-migration cheaper than
// recompute-migration.
func TestMigrateIntoOwnTierRestores(t *testing.T) {
	spec := miniWindowSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(),
		Manager:        tieredJengaFor(t, spec, 1<<20, 32<<20),
		MaxBatchTokens: 512, PreemptMode: PreemptSwap})
	if err != nil {
		t.Fatal(err)
	}
	req := textReqs(24, 1, 300, 16)[0]
	if err := e.Submit(&req); err != nil {
		t.Fatal(err)
	}
	stepToGenerated(t, e, 3)
	m, ok := e.MigrateOut(req.ID)
	if !ok {
		t.Fatal("MigrateOut failed")
	}
	// Unrelated requests overrun the 1 MiB GPU budget, evicting every
	// cached page of the migrated request (its bytes survive in the
	// tier, where MigrateOut spilled them).
	fillers := textReqs(77, 3, 800, 4)
	for i := range fillers {
		if err := e.Submit(&fillers[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	e.MigrateIn(m)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	res := e.ResultSnapshot()
	if res.Finished != 4 || res.MigratedIn != 1 || res.MigratedOut != 1 {
		t.Fatalf("round trip: %+v", res)
	}
	if res.SwapIns == 0 || res.RestoredTokens == 0 {
		t.Fatalf("re-entry did not restore from the tier: swapins=%d restored=%d",
			res.SwapIns, res.RestoredTokens)
	}
}

// TestShedDropsLiveRequest: Shed terminates a running request like an
// admission rejection — terminal EventShed, KV released, counted in
// Result.Shed — while the rest of the stream completes normally.
func TestShedDropsLiveRequest(t *testing.T) {
	reqs := textReqs(25, 2, 150, 10)
	e := migrateEngine(t, 0)
	var shedEv bool
	e.SetEventSink(func(ev Event) {
		if ev.Type == EventShed && ev.ID == reqs[0].ID {
			shedEv = true
		}
	})
	for i := range reqs {
		if err := e.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	stepToGenerated(t, e, 2)
	if !e.Shed(reqs[0].ID) {
		t.Fatal("Shed missed a live request")
	}
	if !shedEv {
		t.Fatal("no EventShed emitted")
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	res := e.ResultSnapshot()
	if res.Shed != 1 || res.Finished != 1 {
		t.Fatalf("shed=%d finished=%d, want 1/1", res.Shed, res.Finished)
	}
	if u := e.cfg.Manager.Usage(); u.Used != 0 {
		t.Fatalf("shed leaked held memory: %+v", u)
	}
}

// TestRecordPeerFetchCharging: peer-fetch bytes surface as peer-link
// DMA time on the next executed step (wall-clock grows), and the
// hit/token/byte counters land in the result. A zero-token fetch (a
// migration page move) charges bytes without counting a hit.
func TestRecordPeerFetchCharging(t *testing.T) {
	run := func(peerBytes int64) *Result {
		req := textReqs(26, 1, 200, 10)[0]
		e := migrateEngine(t, 0)
		if err := e.Submit(&req); err != nil {
			t.Fatal(err)
		}
		if peerBytes > 0 {
			e.RecordPeerFetch(64, peerBytes)
			e.RecordPeerFetch(0, peerBytes) // migration move: bytes only
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return e.ResultSnapshot()
	}
	base := run(0)
	charged := run(1 << 30) // 2 GiB total at 10 GB/s default link ≈ 0.2 s
	if charged.PeerHits != 1 || charged.PeerTokens != 64 || charged.PeerBytes != 2<<30 {
		t.Fatalf("peer counters: %+v", charged)
	}
	if base.PeerHits != 0 || base.PeerBytes != 0 {
		t.Fatalf("baseline saw peer traffic: %+v", base)
	}
	if charged.Duration <= base.Duration {
		t.Fatalf("peer bytes not charged: %v vs %v", charged.Duration, base.Duration)
	}
	if charged.Duration-base.Duration < 100*time.Millisecond {
		t.Fatalf("charge too small: %v", charged.Duration-base.Duration)
	}
}
