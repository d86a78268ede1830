// Package workload generates the synthetic datasets and arrival
// processes of the paper's evaluation (§7.1). Generators match each
// dataset's published token-length statistics; token contents are
// deterministic functions of a seed so prefix-sharing structure (same
// article → same tokens) is exact and runs are reproducible.
package workload

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"jenga/internal/core"
)

// Request is one serving request: a prompt plus a target output length.
// The prompt is Shared followed by Prompt; PromptLen, PromptImages and
// Truncate read and cut the two as one sequence.
type Request struct {
	// ID is unique within a run.
	ID int64
	// Arrival is the simulated arrival time.
	Arrival time.Duration
	// Group labels the request's prefix-sharing class (few-shot subject,
	// article, tenant): requests with equal Group share a prompt prefix.
	// 0 means unlabeled. Routers and stream-splitting helpers use it;
	// the engine ignores it.
	Group int64
	// Shared is the prompt's head that other requests read too — an
	// ArxivQA request's article — borrowed from the generator and
	// read-only for everyone: no consumer writes to it or hands it back
	// (a Recycler takes Prompt alone). nil when the prompt is all the
	// request's own.
	Shared []core.Token
	// Prompt is the request's own part of the input token sequence (text
	// and image tokens), which follows Shared: the whole of it unless
	// the request has a Shared head.
	Prompt []core.Token
	// OutputLen is the number of tokens to generate (the engine runs
	// with the paper's --ignore-eos semantics: exactly this many).
	OutputLen int
	// Deadline is an end-to-end latency budget relative to Arrival
	// (0 = none). SLO-aware admission sheds requests whose estimated
	// queueing already exceeds it, and goodput counts only requests
	// that finish within it.
	Deadline time.Duration
	// Priority is the request's scheduling class, honored by
	// priority-aware schedulers (sched.NewPriority and similar):
	// higher-priority requests are admitted from the waiting queue
	// first and preempted last. The engine's default FCFS scheduler
	// ignores it; the default 0 everywhere is equivalent either way.
	Priority int
	// Fanout, when > 1, turns the request into a fan-out root: once
	// ForkAfter output tokens exist, the engine forks it into Fanout
	// total branches (this request plus Fanout−1 children) that share
	// the KV computed so far copy-on-write and decode independently to
	// their own OutputLen. Parallel sampling, beam-search expansion and
	// agentic fan-out all reduce to this shape. Requires a manager with
	// the core.Forker capability; otherwise the request runs single-
	// stream. 0 and 1 mean no fan-out. The engine derives branch IDs
	// from the root's, so it takes at most 1024 branches of a root whose
	// ID is in [0, 2⁴⁰) and rejects other fan-outs at submission.
	Fanout int
	// ForkAfter is the divergence point of a Fanout request: the number
	// of output tokens shared by all branches before they fork. 0 forks
	// at the first output token.
	ForkAfter int
}

// PromptLen is the length of the whole prompt, Shared then Prompt.
func (r *Request) PromptLen() int { return len(r.Shared) + len(r.Prompt) }

// PromptImages counts image tokens in the whole prompt.
func (r *Request) PromptImages() int { return core.CountImages(r.Shared, r.Prompt) }

// Truncate cuts the whole prompt to its first n tokens (no-op when it
// is no longer): the one way to shorten a request whose prompt has a
// Shared head, which a cut of Prompt alone would leave whole.
func (r *Request) Truncate(n int) {
	if n < len(r.Shared) {
		r.Shared, r.Prompt = r.Shared[:n], r.Prompt[:0]
	} else if n -= len(r.Shared); n < len(r.Prompt) {
		r.Prompt = r.Prompt[:n]
	}
}

// Gen is a deterministic request generator.
type Gen struct {
	rng  *rand.Rand
	next int64
	// prompts is the free list of handed-back prompt arrays
	// (promptbuf.go).
	prompts promptPool
	// prefix holds the group prefixes of the last shape a generator
	// call asked for (groupPrefix).
	prefix prefixMemo
}

// prefixMemo is every group's shared prefix for one generator shape,
// filled once: group i's n tokens are toks[i*n:(i+1)*n], content from
// seed base+i at offset 0 — exactly what filling each prompt's prefix
// in place would write, since fill content is a function of (seed,
// offset, position) alone.
type prefixMemo struct {
	base int64
	n    int
	toks []core.Token
}

// NewGen creates a generator with the given seed.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

func (g *Gen) id() int64 {
	g.next++
	return g.next
}

// fillTokens writes deterministic token contents derived from a content
// seed into dst, so two prompts filled from the same (seed, offset)
// share content. Every generator below draws its lengths first, takes
// the prompt once at its exact size (takePrompt) and fills each segment
// in place — a group's shared prefix is lent from the generator's memo
// instead, as the request's Shared head (groupPrefix) — at most one
// allocation per request, nothing regrown.
//
//jenga:hotpath
func fillTokens(dst []core.Token, seed int64, offset int, image bool) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567
	for i := range dst {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c := int32((x+uint64(offset+i))%50000 + 1)
		if image {
			dst[i] = core.ImageToken(c)
		} else {
			dst[i] = core.TextToken(c)
		}
	}
}

// imageOffset separates image content from text content filled from
// the same seed.
const imageOffset = 1 << 20

// clampedNormal samples a normal distribution clipped to [lo, hi].
func (g *Gen) clampedNormal(mean, stddev float64, lo, hi int) int {
	v := int(math.Round(g.rng.NormFloat64()*stddev + mean))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// uniform samples an integer in [lo, hi].
func (g *Gen) uniform(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Intn(hi-lo+1)
}

// mmluSubjects is how many few-shot subjects MMLUPro draws from, and
// mmluSeedBase the content seed of the first: subject s's prefix is
// filled from seed mmluSeedBase+s, which is also its Group label.
const (
	mmluSubjects       = 4
	mmluSeedBase int64 = 1000
)

// MMLUPro generates text-only exam questions: a shared few-shot
// instruction prefix (subject-wise) followed by a unique question. The
// dataset's maximum length is 3076 tokens (§7.1). A request borrows its
// subject's prefix as its Shared head and owns only its question.
func (g *Gen) MMLUPro(n int, sharedPrefix int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.mmluProOne(sharedPrefix))
	}
	return reqs
}

// mmluProOne generates one MMLUPro request — the per-request body a
// slice generator repeats and a streaming Source pulls one at a time,
// so both forms consume the generator's randomness in the same order.
//
//jenga:hotpath
func (g *Gen) mmluProOne(sharedPrefix int) Request {
	subject := g.rng.Intn(mmluSubjects)
	qLen := g.clampedNormal(800, 400, 128, 3076-sharedPrefix)
	head := g.groupPrefix(mmluSeedBase, mmluSubjects, subject, sharedPrefix)
	question := g.takePrompt(qLen)
	fillTokens(question, int64(g.id())*7919, 0, false)
	return Request{
		ID: g.id(), Group: mmluSeedBase + int64(subject), Shared: head, Prompt: question,
		// MMLU-pro is chain-of-thought: answers are long.
		OutputLen: g.uniform(256, 768),
	}
}

// MMMUPro generates multi-modal questions matching the §3.2 statistics:
// 6193 image tokens and 43 text tokens per request on average.
func (g *Gen) MMMUPro(n int, tokensPerImage int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.mmmuProOne(tokensPerImage))
	}
	return reqs
}

// mmmuProOne generates one MMMUPro request (shared by slice and
// streaming forms; see mmluProOne).
//
//jenga:hotpath
func (g *Gen) mmmuProOne(tokensPerImage int) Request {
	images := 1
	if tokensPerImage < 6193 {
		images = int(math.Round(6193.0/float64(tokensPerImage))) + g.rng.Intn(3) - 1
		if images < 1 {
			images = 1
		}
	}
	txt := g.clampedNormal(43, 15, 8, 120)
	prompt := g.takePrompt(images*tokensPerImage + txt)
	for im := 0; im < images; im++ {
		fillTokens(prompt[im*tokensPerImage:(im+1)*tokensPerImage], int64(g.id())*104729+int64(im), imageOffset, true)
	}
	fillTokens(prompt[images*tokensPerImage:], int64(g.id())*31, 0, false)
	return Request{
		ID: g.id(), Prompt: prompt,
		// MMMU-pro answers include chain-of-thought reasoning.
		OutputLen: g.uniform(128, 384),
	}
}

// Article is a long document in the arXiv-QA pool.
type Article struct {
	Seed   int64
	Tokens []core.Token
}

// Articles builds a pool of long documents (arXiv-QA substrate).
func (g *Gen) Articles(count, meanLen int) []Article {
	arts := make([]Article, count)
	for i := range arts {
		n := g.clampedNormal(float64(meanLen), float64(meanLen)/4, meanLen/4, meanLen*2)
		seed := int64(i+1) * 6700417
		arts[i] = Article{Seed: seed, Tokens: g.takePrompt(n)}
		fillTokens(arts[i].Tokens, seed, 0, false)
	}
	return arts
}

// ArxivQA asks questions about articles from a pool: each request is
// one article followed by a fresh question — the Fig. 17 prefix-caching
// workload, and with a large meanLen the Ministral long-context
// workload (average length 92408, §7.2). A request borrows its article
// as its Shared head, read-only and never copied, and owns only its
// question, the Prompt: the pool is not written while they live.
func (g *Gen) ArxivQA(arts []Article, n int, questionLen int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.arxivQAOne(arts, questionLen))
	}
	return reqs
}

// arxivQAOne generates one ArxivQA request (shared by slice and
// streaming forms; see mmluProOne).
//
//jenga:hotpath
func (g *Gen) arxivQAOne(arts []Article, questionLen int) Request {
	a := arts[g.rng.Intn(len(arts))]
	question := g.takePrompt(questionLen)
	fillTokens(question, int64(g.id())*131071, 0, false)
	return Request{
		ID: g.id(), Group: a.Seed, Shared: slices.Clip(a.Tokens), Prompt: question,
		OutputLen: g.uniform(100, 300),
	}
}

// LongDocQA is the Fig. 15 workload: n requests arriving at once with
// inputs uniform in [55k, 110k] tokens and outputs in [50, 100].
func (g *Gen) LongDocQA(n int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.longDocQAOne())
	}
	return reqs
}

// longDocQAOne generates one LongDocQA request (shared by slice and
// streaming forms; see mmluProOne).
//
//jenga:hotpath
func (g *Gen) longDocQAOne() Request {
	id := g.id()
	seed := int64(g.id()) * 2147483647
	prompt := g.takePrompt(g.uniform(55_000, 110_000))
	fillTokens(prompt, seed, 0, false)
	return Request{ID: id, Prompt: prompt, OutputLen: g.uniform(50, 100)}
}

// ShareGPT generates conversational prompts with the dataset's ~1085
// average length (§4.4).
func (g *Gen) ShareGPT(n int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.shareGPTOne())
	}
	return reqs
}

// shareGPTOne generates one ShareGPT request (shared by slice and
// streaming forms; see mmluProOne).
//
//jenga:hotpath
func (g *Gen) shareGPTOne() Request {
	id := g.id()
	seed := int64(g.id()) * 524287
	prompt := g.takePrompt(g.clampedNormal(1085, 600, 32, 8192))
	fillTokens(prompt, seed, 0, false)
	return Request{ID: id, Prompt: prompt, OutputLen: g.uniform(64, 512)}
}

// PrefixGroups generates the cluster-routing workload: groups distinct
// shared prefixes (few-shot templates, system prompts, tenants), each
// serving perGroup requests that append a unique suffix of suffixLen
// tokens. Requests interleave across groups in generation order, so an
// arrival process laid over them alternates prefix classes the way
// concurrent tenants do. With many groups and a per-replica cache too
// small to hold them all, router choice dominates the aggregate prefix
// hit rate. A request borrows its group's prefix as its Shared head and
// owns only its suffix.
func (g *Gen) PrefixGroups(groups, perGroup, prefixLen, suffixLen int) []Request {
	reqs := make([]Request, 0, groups*perGroup)
	for i := 0; i < perGroup; i++ {
		for grp := 0; grp < groups; grp++ {
			reqs = append(reqs, g.prefixGroupsOne(groups, grp, prefixLen, suffixLen))
		}
	}
	return reqs
}

// prefixGroupsOne generates one PrefixGroups request for group grp
// (shared by slice and streaming forms; see mmluProOne).
//
//jenga:hotpath
func (g *Gen) prefixGroupsOne(groups, grp, prefixLen, suffixLen int) Request {
	head, suffix := g.groupPrompt(groups, grp, prefixLen, suffixLen)
	return Request{
		ID: g.id(), Group: groupSeedBase + int64(grp), Shared: head, Prompt: suffix,
		OutputLen: g.uniform(16, 64),
	}
}

// groupSeedBase is the content seed of PrefixGroups' and ChurnGroups'
// group 0: group grp's prefix is filled from seed groupSeedBase+grp,
// which is also its Group label.
const groupSeedBase int64 = 7_000_000

// groupPrompt builds a PrefixGroups/ChurnGroups prompt: group grp's
// shared prefix, of groups in all, as the borrowed head, and a unique
// suffix, the request's own.
//
//jenga:hotpath
func (g *Gen) groupPrompt(groups, grp, prefixLen, suffixLen int) (head, suffix []core.Token) {
	head = g.groupPrefix(groupSeedBase, groups, grp, prefixLen)
	suffix = g.takePrompt(suffixLen)
	fillTokens(suffix, int64(g.id())*15485863, 0, false)
	return head, suffix
}

// groupPrefix returns group grp's shared prefix of n tokens, content
// seed base+grp, for a generator of groups groups. The first request of
// a shape fills every group's prefix into one array (takeMemo); later
// ones borrow it as their Shared head instead of refilling it per
// request. The memo is the Gen's and read-only: the head is clipped, so
// no append through it writes into the next group's prefix.
//
//jenga:hotpath
func (g *Gen) groupPrefix(base int64, groups, grp, n int) []core.Token {
	m := &g.prefix
	if m.base != base || m.n != n || len(m.toks) < groups*n {
		g.fillPrefixes(base, groups, n)
	}
	return slices.Clip(m.toks[grp*n : (grp+1)*n])
}

// fillPrefixes fills the memo with the prefixes of groups groups: the
// one fill each group's prefix gets while its shape lasts. The memo is
// always a fresh array, never the last shape's refilled, so a head lent
// under an earlier shape keeps its content for as long as it lives.
func (g *Gen) fillPrefixes(base int64, groups, n int) {
	g.prefix = prefixMemo{base: base, n: n, toks: takeMemo(groups * n)}
	for i := 0; i < groups; i++ {
		fillTokens(g.prefix.toks[i*n:(i+1)*n], base+int64(i), 0, false)
	}
}

// ChurnGroups generates the replica-churn workload: the same shared
// prefixes as PrefixGroups (identical content seeds, so caches warmed
// by one pattern serve the other), but with phase-shifted group
// popularity. The stream divides into `phases` equal windows; in
// window p the hot set is the groups with index ≡ p (mod phases), and
// 80% of the window's requests draw uniformly from it while 20% draw
// uniformly from all groups. Each phase shift re-concentrates a
// different prefix subset, so under affinity routing the new phase's
// requests land on replicas whose caches never served their group —
// the miss-after-reroute case a fleet-wide KV store converts from a
// recompute into a peer fetch. phases < 2 degrades to a single hot
// set (no churn).
func (g *Gen) ChurnGroups(groups, perGroup, prefixLen, suffixLen, phases int) []Request {
	if phases < 1 {
		phases = 1
	}
	total := groups * perGroup
	reqs := make([]Request, 0, total)
	for i := 0; i < total; i++ {
		reqs = append(reqs, g.churnGroupsOne(i, total, groups, prefixLen, suffixLen, phases))
	}
	return reqs
}

// churnGroupsOne generates ChurnGroups request i of total (shared by
// slice and streaming forms; see mmluProOne).
//
//jenga:hotpath
func (g *Gen) churnGroupsOne(i, total, groups, prefixLen, suffixLen, phases int) Request {
	p := i * phases / total
	// Hot groups in phase p are p, p+phases, p+2·phases, …
	hot := 0
	if p < groups {
		hot = (groups-1-p)/phases + 1
	}
	var grp int
	if hot > 0 && g.rng.Intn(5) != 0 {
		grp = p + g.rng.Intn(hot)*phases
	} else {
		grp = g.rng.Intn(groups)
	}
	head, suffix := g.groupPrompt(groups, grp, prefixLen, suffixLen)
	return Request{
		ID: g.id(), Group: groupSeedBase + int64(grp), Shared: head, Prompt: suffix,
		OutputLen: g.uniform(16, 64),
	}
}

// FanOut generates fan-out roots (parallel sampling, best-of-n, agentic
// tree expansion): n requests, each with a unique prompt of promptLen
// tokens that forks into branch streams once forkAfter output tokens
// exist, every branch decoding to outLen total output tokens. Each root
// is its own Group, so schedulers see a fan-out's branches as siblings.
func (g *Gen) FanOut(n, promptLen, forkAfter, outLen, branch int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.fanOutOne(promptLen, forkAfter, outLen, branch))
	}
	return reqs
}

// fanOutOne generates one fan-out root (shared by slice and streaming
// forms; see mmluProOne).
//
//jenga:hotpath
func (g *Gen) fanOutOne(promptLen, forkAfter, outLen, branch int) Request {
	id := g.id()
	prompt := g.takePrompt(promptLen)
	fillTokens(prompt, id*399989, 0, false)
	return Request{
		ID: id, Group: id,
		Prompt:    prompt,
		OutputLen: outLen,
		Fanout:    branch, ForkAfter: forkAfter,
	}
}

// NaiveFanOut lowers fan-out roots into the independent-request stream
// an engine without forking must serve to produce the same branches:
// Fanout copies of each root's prompt with the same arrival, group and
// output budget, no fork. Prefix caching can still share the prompt
// blocks across copies, but every token the branches would have shared
// from the generated region is computed — and held — per copy. Requests
// without fan-out pass through unchanged; clone IDs start at 1<<40.
func NaiveFanOut(reqs []Request) []Request {
	out := make([]Request, 0, len(reqs))
	nextID := int64(1) << 40
	for i := range reqs {
		r := reqs[i]
		n := r.Fanout
		r.Fanout, r.ForkAfter = 0, 0
		out = append(out, r)
		for b := 1; b < n; b++ {
			c := r
			c.ID = nextID
			nextID++
			out = append(out, c)
		}
	}
	return out
}

// SplitByGroup partitions a stream by its Group labels, preserving
// order within each label.
func SplitByGroup(reqs []Request) map[int64][]Request {
	out := make(map[int64][]Request)
	for i := range reqs {
		out[reqs[i].Group] = append(out[reqs[i].Group], reqs[i])
	}
	return out
}

// DriftLengths rescales request lengths so the mean input length drifts
// linearly from loFactor to hiFactor across the slice — the Fig. 16
// "dynamic" trace where workload composition changes over time.
func (g *Gen) DriftLengths(reqs []Request, loFactor, hiFactor float64) {
	n := len(reqs)
	for i := range reqs {
		f := loFactor + (hiFactor-loFactor)*float64(i)/float64(max(n-1, 1))
		reqs[i].Truncate(max(int(float64(reqs[i].PromptLen())*f), 16))
	}
}

// PoissonArrivals assigns arrival times with exponential gaps at the
// given rate (requests/second).
func (g *Gen) PoissonArrivals(reqs []Request, ratePerSec float64) {
	t := 0.0
	for i := range reqs {
		gap := g.rng.ExpFloat64() / ratePerSec
		t += gap
		reqs[i].Arrival = time.Duration(t * float64(time.Second))
	}
}

// SetDeadlines assigns every request the same end-to-end latency
// budget (SLO-aware admission and goodput accounting read it).
func SetDeadlines(reqs []Request, d time.Duration) {
	for i := range reqs {
		reqs[i].Deadline = d
	}
}

// AllAtOnce zeroes every arrival time (offline batch workloads).
func AllAtOnce(reqs []Request) {
	for i := range reqs {
		reqs[i].Arrival = 0
	}
}

// Span returns the earliest and latest arrival instants of a stream
// (0, 0 for an empty one). Chaos schedules anchor crash and restart
// times to it so a plan stays mid-burst at any request count or rate.
func Span(reqs []Request) (first, last time.Duration) {
	if len(reqs) == 0 {
		return 0, 0
	}
	first, last = reqs[0].Arrival, reqs[0].Arrival
	for i := range reqs[1:] {
		a := reqs[i+1].Arrival
		if a < first {
			first = a
		}
		if a > last {
			last = a
		}
	}
	return first, last
}
