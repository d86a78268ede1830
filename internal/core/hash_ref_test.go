package core

// Reference forms of the per-request block hashing (hashesOf folds the
// projection and the chain into one incremental pass): the tests check
// the incremental hashes, and pin the hash function, against these.

// extendBlockHashes appends to dst the chained hash of every complete
// block of size blockTokens over the projected token list that dst
// does not hold yet: element k covers projected tokens
// [k*blockTokens, (k+1)*blockTokens). The chain resumes from dst's last
// element (the chain value after block k IS element k, so covered
// tokens are not rehashed); callers guarantee dst was built from a
// prefix of tokens, and pass dst[:0] to hash from the start into
// reused scratch.
func extendBlockHashes(dst []uint64, tokens []Token, blockTokens int) []uint64 {
	if blockTokens <= 0 {
		return dst
	}
	n := len(tokens) / blockTokens
	h := blockHashSeed
	if len(dst) > 0 {
		h = dst[len(dst)-1]
	}
	for k := len(dst); k < n; k++ {
		for i := k * blockTokens; i < (k+1)*blockTokens; i++ {
			h = hashChain(h, tokens[i])
		}
		dst = append(dst, h)
	}
	return dst
}

// projectInto appends to dst the subsequence of tokens a group stores
// (its "projected sequence") given the group's modality filter; pass
// dst[:0] to reuse capacity.
func projectInto(dst []Token, tokens []Token, storesImage, storesText bool) []Token {
	for _, t := range tokens {
		if (t.Image() && storesImage) || (!t.Image() && storesText) {
			dst = append(dst, t)
		}
	}
	return dst
}
