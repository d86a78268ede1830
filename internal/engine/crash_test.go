package engine

import (
	"testing"
	"time"
)

// TestCrashOutLosesProgressKeepsIdentity: a crash extracts every live
// request with its progress reset to the prompt (the KV died with the
// device), emits nothing, and empties the engine. Re-dispatched on a
// survivor, every request still finishes exactly once — the crashed
// work re-runs as recompute, and a request whose first token was
// already streamed never emits a second EventFirstToken.
func TestCrashOutLosesProgressKeepsIdentity(t *testing.T) {
	reqs := textReqs(31, 3, 200, 12)
	reqs[2].Arrival = time.Hour // still pending at crash time
	a := migrateEngine(t, 32<<20)
	for i := range reqs {
		if err := a.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	stepToGenerated(t, a, 4)

	var crashEvents int
	a.SetEventSink(func(Event) { crashEvents++ })
	lost := a.CrashOut()
	a.SetEventSink(nil)
	if crashEvents != 0 {
		t.Fatalf("CrashOut emitted %d events, want none", crashEvents)
	}
	if len(lost) != 3 {
		t.Fatalf("extracted %d requests, want 3", len(lost))
	}
	if a.Live() {
		t.Fatal("engine still live after CrashOut")
	}
	sawProgress := false
	for _, m := range lost {
		if m.Out != nil {
			t.Fatalf("request %d extracted %d generated tokens, want none (prompt only)", m.req.ID, len(m.Out))
		}
		if m.decodesDone != 0 {
			t.Fatalf("request %d kept %d decodes across a crash", m.req.ID, m.decodesDone)
		}
		if m.everComputed > 0 {
			sawProgress = true
		}
		if m.req.Arrival == time.Hour && m.state != pending {
			t.Fatalf("pending request extracted in state %d", m.state)
		}
	}
	if !sawProgress {
		t.Fatal("no extracted request carried a recompute high-water mark")
	}

	b := migrateEngine(t, 32<<20)
	firstTokens := make(map[int64]int)
	terminals := make(map[int64]int)
	b.SetEventSink(func(ev Event) {
		if ev.Type == EventFirstToken {
			firstTokens[ev.ID]++
		}
		if ev.Type.Terminal() {
			terminals[ev.ID]++
		}
	})
	for _, m := range lost {
		// A redispatched request whose first token already streamed
		// must not re-announce it on the survivor.
		if m.firstToken > 0 {
			firstTokens[m.req.ID]++
		}
		b.MigrateIn(m)
	}
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	res := b.ResultSnapshot()
	if res.Finished != 3 {
		t.Fatalf("survivor finished %d of 3 redispatched requests", res.Finished)
	}
	if res.RecomputedTokens == 0 {
		t.Fatal("crashed progress re-ran without counting as recompute")
	}
	for id, n := range firstTokens {
		if n != 1 {
			t.Fatalf("request %d announced %d first tokens, want exactly 1", id, n)
		}
	}
	for id, n := range terminals {
		if n != 1 {
			t.Fatalf("request %d saw %d terminal events on the survivor", id, n)
		}
	}
}
