// Package workload generates the synthetic datasets and arrival
// processes of the paper's evaluation (§7.1). Generators match each
// dataset's published token-length statistics; token contents are
// deterministic functions of a seed so prefix-sharing structure (same
// article → same tokens) is exact and runs are reproducible.
package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"jenga/internal/core"
)

// Request is one serving request: a prompt plus a target output length.
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
	// Prompt is the input token sequence (text and image tokens).
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
	// stream. 0 and 1 mean no fan-out.
	Fanout int
	// ForkAfter is the divergence point of a Fanout request: the number
	// of output tokens shared by all branches before they fork. 0 forks
	// at the first output token.
	ForkAfter int
}

// PromptImages counts image tokens in the prompt.
func (r *Request) PromptImages() int {
	n := 0
	for _, t := range r.Prompt {
		if t.Image() {
			n++
		}
	}
	return n
}

// Gen is a deterministic request generator.
type Gen struct {
	rng  *rand.Rand
	next int64
	// prompts is the free list of handed-back prompt arrays
	// (promptbuf.go).
	prompts promptPool
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
// in place: at most one allocation per request, nothing copied or
// regrown.
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

// MMLUPro generates text-only exam questions: a shared few-shot
// instruction prefix (subject-wise) followed by a unique question. The
// dataset's maximum length is 3076 tokens (§7.1).
func (g *Gen) MMLUPro(n int, sharedPrefix int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.mmluProOne(sharedPrefix))
	}
	return reqs
}

// mmluProOne generates one MMLUPro request — the per-request body
// shared by the slice generator and MMLUProSource, so both consume the
// generator's randomness in exactly the same order.
//
//jenga:hotpath
func (g *Gen) mmluProOne(sharedPrefix int) Request {
	subject := g.rng.Intn(4)
	qLen := g.clampedNormal(800, 400, 128, 3076-sharedPrefix)
	prompt := g.takePrompt(sharedPrefix + qLen)
	fillTokens(prompt[:sharedPrefix], int64(1000+subject), 0, false)
	fillTokens(prompt[sharedPrefix:], int64(g.id())*7919, 0, false)
	return Request{
		ID: g.id(), Group: int64(1000 + subject), Prompt: prompt,
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
// workload (average length 92408, §7.2).
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
	prompt := g.takePrompt(len(a.Tokens) + questionLen)
	copy(prompt, a.Tokens)
	fillTokens(prompt[len(a.Tokens):], int64(g.id())*131071, 0, false)
	return Request{
		ID: g.id(), Group: a.Seed, Prompt: prompt,
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
// hit rate.
func (g *Gen) PrefixGroups(groups, perGroup, prefixLen, suffixLen int) []Request {
	reqs := make([]Request, 0, groups*perGroup)
	for i := 0; i < perGroup; i++ {
		for grp := 0; grp < groups; grp++ {
			reqs = append(reqs, g.prefixGroupsOne(grp, prefixLen, suffixLen))
		}
	}
	return reqs
}

// prefixGroupsOne generates one PrefixGroups request for group grp
// (shared by slice and streaming forms; see mmluProOne).
//
//jenga:hotpath
func (g *Gen) prefixGroupsOne(grp, prefixLen, suffixLen int) Request {
	seed := int64(7_000_000 + grp)
	prompt := g.groupPrompt(seed, prefixLen, suffixLen)
	return Request{
		ID: g.id(), Group: seed, Prompt: prompt,
		OutputLen: g.uniform(16, 64),
	}
}

// groupPrompt builds a PrefixGroups/ChurnGroups prompt: the group's
// shared prefix (content from seed) and a unique suffix.
//
//jenga:hotpath
func (g *Gen) groupPrompt(seed int64, prefixLen, suffixLen int) []core.Token {
	prompt := g.takePrompt(prefixLen + suffixLen)
	fillTokens(prompt[:prefixLen], seed, 0, false)
	fillTokens(prompt[prefixLen:], int64(g.id())*15485863, 0, false)
	return prompt
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
	seed := int64(7_000_000 + grp)
	prompt := g.groupPrompt(seed, prefixLen, suffixLen)
	return Request{
		ID: g.id(), Group: seed, Prompt: prompt,
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

// Merge combines streams into one, ordered by arrival time (stable
// across equal arrivals, so AllAtOnce batches keep their input order).
func Merge(streams ...[]Request) []Request {
	var out []Request
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out
}

// DriftLengths rescales request lengths so the mean input length drifts
// linearly from loFactor to hiFactor across the slice — the Fig. 16
// "dynamic" trace where workload composition changes over time.
func (g *Gen) DriftLengths(reqs []Request, loFactor, hiFactor float64) {
	n := len(reqs)
	for i := range reqs {
		f := loFactor + (hiFactor-loFactor)*float64(i)/float64(max(n-1, 1))
		keep := int(float64(len(reqs[i].Prompt)) * f)
		if keep < 16 {
			keep = 16
		}
		if keep < len(reqs[i].Prompt) {
			reqs[i].Prompt = reqs[i].Prompt[:keep]
		}
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

// JitterArrivals perturbs each arrival by an independent uniform
// offset in [0, maxJitter) — client-side scheduling noise layered over
// any arrival process. The engine orders submissions by arrival
// itself, so jittered streams need no re-sort.
func (g *Gen) JitterArrivals(reqs []Request, maxJitter time.Duration) {
	if maxJitter <= 0 {
		return
	}
	for i := range reqs {
		reqs[i].Arrival += time.Duration(g.rng.Int63n(int64(maxJitter)))
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

// MeanPromptLen returns the average prompt length of a batch.
func MeanPromptLen(reqs []Request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	var s int64
	for i := range reqs {
		s += int64(len(reqs[i].Prompt))
	}
	return float64(s) / float64(len(reqs))
}
