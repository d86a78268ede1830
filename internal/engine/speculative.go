package engine

// Speculative decoding (§6.1, Fig. 19). A model.Spec built by
// model.WithDraft is a target/draft pair, and the engine serves it
// with the loop it serves everything else with. Three things differ,
// all in runStep: a decode-phase run's step is a verify pass — it
// takes SpecK+1 tokens of the step budget and commits the accepted
// proposals plus the target's own bonus token in one burst, so
// decodesDone, GeneratedTokens and Event.Generated advance by 1 to
// SpecK+1 per step; the step's duration adds the draft's passes (the
// prompt chunks once, then SpecK sequential proposal passes over the
// verify batch) to the target's one; and memory holds both models' KV,
// because the pair's groups are the union of theirs. Only accepted
// tokens are ever stored: the pages a rejected suffix would touch
// between proposal and rollback are not modelled.

const (
	// SpecK is the number of tokens the draft proposes per verify pass.
	SpecK = 4
	// specAcceptRate is the probability that the target accepts a
	// proposed token, given it accepted the ones before it.
	specAcceptRate = 0.7
)

// acceptedDrafts is how many of the SpecK proposals the verify pass
// that starts at sequence position pos accepts: the leading successes
// of SpecK Bernoulli(specAcceptRate) draws. The draws are a hash of
// (request, position, proposal index) and nothing else, so a request
// decodes the same bursts wherever and however often it is preempted,
// migrated, redispatched or forked (a branch draws under its own ID).
//
//jenga:hotpath
func acceptedDrafts(id int64, pos int) int {
	for k := 0; k < SpecK; k++ {
		// splitmix64's finalizer over the combined key.
		x := uint64(id)*0x9E3779B97F4A7C15 + uint64(pos)*0xD6E8FEB86659FD93 + uint64(k)
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		x ^= x >> 31
		if float64(x>>11)/(1<<53) >= specAcceptRate {
			return k
		}
	}
	return SpecK
}
