package workload

import (
	"testing"

	"jenga/internal/core"
	"jenga/internal/debug"
)

// TestPromptPool: a handed-back array serves the next request it is
// large enough for — of its own size class or the one below — and no
// other; a Gen keeps no more idle arrays per class than it ever had
// prompts out; and a jengadebug build poisons an array on its way in.
func TestPromptPool(t *testing.T) {
	g := NewGen(1)
	a := g.takePrompt(560)
	if len(a) != 560 || cap(a) != 560 {
		t.Fatalf("a fresh prompt has len %d, cap %d, want 560 exactly", len(a), cap(a))
	}
	a[0], a[559] = core.TextToken(7), core.TextToken(9)
	g.recyclePrompt(a)
	if debug.On && (a[0] != poisonToken || a[559] != poisonToken) {
		t.Fatal("a jengadebug build left a handed-back array unpoisoned")
	}
	if b := g.takePrompt(561); &b[0] == &a[0] {
		t.Fatal("a 560-token array served a 561-token prompt")
	}
	if b := g.takePrompt(300); &b[0] != &a[0] || len(b) != 300 || cap(b) != 560 {
		t.Fatalf("a 300-token prompt did not reuse the idle 560-token array (len %d, cap %d)", len(b), cap(b))
	}
	g.recyclePrompt(a[:300]) // a consumer hands back what it was given
	if b := g.takePrompt(560); &b[0] != &a[0] || len(b) != 560 {
		t.Fatal("a re-sliced array lost its capacity on the way back")
	}

	// Arrays from elsewhere: a Gen that never had more than two prompts
	// out keeps at most two idle per class.
	h := NewGen(2)
	h.takePrompt(64)
	h.takePrompt(64)
	for i := 0; i < 10; i++ {
		h.recyclePrompt(make([]core.Token, 64))
	}
	if n := len(h.prompts.free[6]); n != 2 {
		t.Fatalf("%d idle 64-token arrays kept by a Gen that lent two at most", n)
	}
}
