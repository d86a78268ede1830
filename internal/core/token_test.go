package core

import (
	"testing"
	"unsafe"
)

// TestTokenLayout: a token is four bytes — content in the low 31 bits,
// modality in the sign bit — and the plain literal stays a text token.
func TestTokenLayout(t *testing.T) {
	if got := unsafe.Sizeof(Token{}); got != 4 {
		t.Fatalf("Token is %d bytes, want 4", got)
	}
	if tok := (Token{ID: 7}); tok.Image() || tok.Content() != 7 || tok != TextToken(7) {
		t.Errorf("Token{ID: 7} = image %v, content %d; want text token 7", tok.Image(), tok.Content())
	}
	for _, c := range []int32{0, 1, 7, 50_000, 1<<31 - 1} {
		if tok := ImageToken(c); !tok.Image() || tok.Content() != c {
			t.Errorf("ImageToken(%d) = image %v, content %d", c, tok.Image(), tok.Content())
		}
		if tok := TextToken(c); tok.Image() || tok.Content() != c {
			t.Errorf("TextToken(%d) = image %v, content %d", c, tok.Image(), tok.Content())
		}
		if ImageToken(c) == TextToken(c) {
			t.Errorf("content %d: image and text tokens compare equal", c)
		}
	}
	// The sign bit is never content: constructors keep the low 31 bits.
	if tok := TextToken(-1); tok.Image() || tok.Content() != 1<<31-1 {
		t.Errorf("TextToken(-1) = image %v, content %d", tok.Image(), tok.Content())
	}
}

// TestHashPinned holds hashChain, the block chain and PrefixHash to
// values captured when Token was {ID int32; Image bool}: prefix-cache
// keys, PrefixHash routing and fleet-directory keys did not move when
// the token was packed.
func TestHashPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		parent uint64
		tok    Token
		want   uint64
	}{
		{"text 7", blockHashSeed, Token{ID: 7}, 0xe1f9bdb0ed43b199},
		{"image 7", blockHashSeed, ImageToken(7), 0x92b9584f67374c0d},
		{"text 0", blockHashSeed, Token{}, 0x7761dfa0c1784336},
		{"image 0", blockHashSeed, ImageToken(0), 0xe79ed51b2c720670},
		{"text max", 12345, TextToken(1<<31 - 1), 0x743612b66689d2ff},
		{"image max", 12345, ImageToken(1<<31 - 1), 0xe3f92db799d28810},
	} {
		if got := hashChain(c.parent, c.tok); got != c.want {
			t.Errorf("hashChain(%s) = %#016x, want %#016x", c.name, got, c.want)
		}
	}
	var toks []Token
	for i := 0; i < 100; i++ {
		tok := TextToken(int32(i*37%50000 + 1))
		if i%5 < 2 {
			tok = ImageToken(tok.Content())
		}
		toks = append(toks, tok)
	}
	if got := PrefixHash(40, toks); got != 0x74e2ce29e45fd37a {
		t.Errorf("PrefixHash(40) = %#016x", got)
	}
	if got := PrefixHash(1000, toks); got != 0x35fc3b37e088254a {
		t.Errorf("PrefixHash(all) = %#016x", got)
	}
	want := []uint64{0xab107b19306befaa, 0xb17f3c1820d4f83e, 0x476a79abdbaaf80c,
		0x93e6ad550c944a9f, 0xe0e397b80f33e0cb, 0x94e7d66151529b2}
	got := extendBlockHashes(nil, toks, 16)
	if len(got) != len(want) {
		t.Fatalf("%d block hashes, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("block %d hash = %#016x, want %#016x", k, got[k], want[k])
		}
	}
}
