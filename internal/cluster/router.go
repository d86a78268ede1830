package cluster

import (
	"fmt"
	"sort"

	"jenga/internal/core"
	"jenga/internal/workload"
)

// RouterPolicy selects one of the built-in routing policies.
type RouterPolicy int

const (
	// RoundRobin cycles through replicas in order — the baseline load
	// balancer, oblivious to both load and prefix sharing.
	RoundRobin RouterPolicy = iota
	// LeastLoaded sends each request to the replica with the fewest
	// estimated outstanding tokens (queued prompt + pending output),
	// drained at the replica's nominal serving rate between arrivals.
	LeastLoaded
	// PrefixAffinity consistent-hashes the request's prompt-prefix hash
	// onto a replica ring, so requests sharing a prefix land on the
	// same replica and hit its prefix cache — the PagedAttention
	// sharing insight lifted to the cluster level.
	PrefixAffinity
)

// String implements fmt.Stringer.
func (p RouterPolicy) String() string {
	switch p {
	case RoundRobin:
		return "roundrobin"
	case LeastLoaded:
		return "leastloaded"
	case PrefixAffinity:
		return "affinity"
	default:
		return fmt.Sprintf("RouterPolicy(%d)", int(p))
	}
}

// Load is the router-visible state of one replica at routing time. The
// cluster maintains it: RoutedTokens grows with every assignment and
// Outstanding additionally drains at the replica's nominal serving
// rate as simulated arrival time advances. Under a horizon policy
// (ServeOnline; ServeStream with a load-aware router, or with a fleet
// or chaos config) the Live fields additionally carry the replica's
// actual scheduler state as of the last horizon — the arrival instant
// itself for ServeOnline — so routers decide on measured usage and
// queue depth instead of estimates.
type Load struct {
	// Replica is the replica index.
	Replica int
	// Requests is the number of requests routed so far.
	Requests int
	// RoutedTokens is the total work routed so far (prompt plus target
	// output tokens).
	RoutedTokens int64
	// Outstanding estimates tokens routed but not yet served.
	Outstanding float64
	// Live reports whether the fields below hold the replica's real
	// scheduler state (a horizon has published it) rather than zero
	// values (no horizon: Serve, and ServeStream with a load-oblivious
	// built-in router).
	Live bool
	// Usage is the replica's live KV memory accounting.
	Usage core.Usage
	// QueueDepth is the replica's live count of admitted-but-unstarted
	// requests.
	QueueDepth int
	// OutstandingTokens is the replica's live admitted-but-unserved
	// work: remaining prompt plus remaining output tokens.
	OutstandingTokens int64
	// Health is the replica's live health under a chaos plan (the
	// every-arrival horizon; always Healthy without one). The cluster
	// owns the field and falls requests over itself when a router picks
	// a dead replica.
	Health Health
}

// Router decides which replica serves each request. Route is called
// once per request in arrival order with the current per-replica loads
// and must return an index in [0, len(loads)). Implementations may
// keep state; the cluster serializes calls.
type Router interface {
	// Name identifies the policy in results and output tables.
	Name() string
	// Route picks the replica for req.
	Route(req *workload.Request, loads []Load) int
}

// NewRouter builds a built-in router. PrefixTokens is the prompt
// prefix length hashed by PrefixAffinity (default 256 — long enough to
// separate few-shot templates, short enough to ignore unique question
// tails); vnodes is the number of ring points per replica (default 64).
func NewRouter(p RouterPolicy, replicas, prefixTokens, vnodes int) (Router, error) {
	if replicas < 1 {
		return nil, &core.ConfigError{Config: "cluster.Config", Field: "Replicas", Reason: fmt.Sprintf("need at least 1 replica, got %d", replicas)}
	}
	switch p {
	case RoundRobin:
		return &roundRobinRouter{}, nil
	case LeastLoaded:
		return &leastLoadedRouter{}, nil
	case PrefixAffinity:
		if prefixTokens <= 0 {
			prefixTokens = 256
		}
		if vnodes <= 0 {
			vnodes = 64
		}
		return newAffinityRouter(replicas, prefixTokens, vnodes), nil
	default:
		return nil, &core.ConfigError{Config: "cluster.Config", Field: "Policy", Reason: fmt.Sprintf("unknown router policy %d", int(p))}
	}
}

// resettable is implemented by stateful built-in routers so every
// pass over a stream starts from the same state — placement is then a
// pure function of the stream, and a second serve call over one
// stream places every request where the first did.
type resettable interface{ reset() }

// loadOblivious is implemented by the built-in routers that never read
// a Load: placement is then a pure function of the stream, so
// ServeStream runs them with no horizon, as Serve does — a barrier
// would publish snapshots nobody reads. A custom Router is not assumed
// oblivious, even one that wraps a built-in.
type loadOblivious interface{ loadOblivious() }

// roundRobinRouter cycles through replicas.
type roundRobinRouter struct{ next int }

func (r *roundRobinRouter) Name() string { return RoundRobin.String() }

func (r *roundRobinRouter) reset() { r.next = 0 }

func (r *roundRobinRouter) loadOblivious() {}

//jenga:hotpath
func (r *roundRobinRouter) Route(_ *workload.Request, loads []Load) int {
	i := r.next % len(loads)
	r.next++
	return i
}

// leastLoadedRouter picks the replica with the fewest outstanding
// tokens — the live measured backlog when the cluster provides it
// (online serving), the drained estimate otherwise — breaking ties
// toward less total routed work and then the lower index
// (deterministic).
type leastLoadedRouter struct{}

func (r *leastLoadedRouter) Name() string { return LeastLoaded.String() }

// backlog is the ranking signal: live outstanding work when available.
func (r *leastLoadedRouter) backlog(l Load) float64 {
	if l.Live {
		return float64(l.OutstandingTokens)
	}
	return l.Outstanding
}

//jenga:hotpath
func (r *leastLoadedRouter) Route(_ *workload.Request, loads []Load) int {
	best := 0
	for i := 1; i < len(loads); i++ {
		switch {
		case r.backlog(loads[i]) < r.backlog(loads[best]):
			best = i
		case r.backlog(loads[i]) == r.backlog(loads[best]) &&
			loads[i].RoutedTokens < loads[best].RoutedTokens:
			best = i
		}
	}
	return best
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash    uint64
	replica int
}

// affinityRouter consistent-hashes prompt prefixes onto a replica
// ring. Virtual nodes smooth the per-replica arc lengths, and
// consistent hashing (rather than hash mod N) keeps most prefix
// classes pinned to the same replica when the fleet is resized.
type affinityRouter struct {
	prefixTokens int
	ring         []ringPoint
	// own is the scratch Route fills the part of a recipe's tokens the
	// prefix reaches past the Shared head into: a routed request has not
	// arrived, so no engine has filled them.
	own []core.Token
}

func newAffinityRouter(replicas, prefixTokens, vnodes int) *affinityRouter {
	r := &affinityRouter{prefixTokens: prefixTokens}
	r.ring = make([]ringPoint, 0, replicas*vnodes)
	for rep := 0; rep < replicas; rep++ {
		for v := 0; v < vnodes; v++ {
			h := mix64(uint64(rep)*0x1000193 + uint64(v) + 0xA11F1A57)
			r.ring = append(r.ring, ringPoint{hash: h, replica: rep})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].hash != r.ring[j].hash {
			return r.ring[i].hash < r.ring[j].hash
		}
		return r.ring[i].replica < r.ring[j].replica
	})
	return r
}

func (r *affinityRouter) Name() string { return PrefixAffinity.String() }

func (r *affinityRouter) loadOblivious() {}

func (r *affinityRouter) Route(req *workload.Request, loads []Load) int {
	var own []core.Token
	if n := r.prefixTokens - len(req.Shared); n > 0 {
		own, r.own = req.OwnTokens(n, r.own)
	}
	h := core.PrefixHash(r.prefixTokens, req.Shared, own)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	if i == len(r.ring) {
		i = 0 // wrap around the ring
	}
	return r.ring[i].replica % len(loads) // a ring built for more replicas than the cluster has folds
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed hash
// for ring-point placement.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
