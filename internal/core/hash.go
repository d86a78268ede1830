package core

// Block hashing for prefix caching. As in vLLM, a block's hash chains
// the parent block's hash with the block's token IDs, so a hash value
// identifies the entire prefix up to and including the block. Presence
// in the index is per block: evicting an early block makes that block
// miss without invalidating the identities of later blocks, which is
// what lets sliding-window layers hit on prefixes whose early tokens
// are gone (§5.2).

// blockHashSeed distinguishes an empty chain from a zero hash.
const blockHashSeed uint64 = 0x6A656E6761_5F4B56 // "jenga_KV"

// hashChain extends a parent hash with one token. Content and modality
// enter separately, so the value does not depend on how Token packs
// them: published block hashes, PrefixHash routing keys and fleet
// directory keys are what they were when the modality was its own field.
func hashChain(parent uint64, tok Token) uint64 {
	x := parent ^ (uint64(tok.Content()) + 0x9E3779B97F4A7C15)
	if tok.Image() {
		x ^= 0xA5A5A5A5A5A5A5A5
	}
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// PrefixHash returns the chained hash over the first n tokens (the
// whole sequence when n exceeds it). It is the same chain prefix
// caching publishes per block, so two requests that share a cached
// prefix share its PrefixHash — cluster routers use it to steer
// prefix-sharing requests to the same replica.
func PrefixHash(tokens []Token, n int) uint64 {
	h := blockHashSeed
	for i := 0; i < n && i < len(tokens); i++ {
		h = hashChain(h, tokens[i])
	}
	return h
}
