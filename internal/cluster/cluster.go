// Package cluster scales the single-engine serving simulation out to a
// multi-replica cluster: N independent engine.Engine replicas — each
// with its own core.Manager heap and simulated gpu.Device — run on
// shard goroutines, while a pluggable Router decides which replica
// serves each request of the arrival stream.
//
// The routing decision is where the paper's single-engine story meets
// production scale-out: prefix-cache hit rate depends on *which*
// replica a request lands on, because each replica caches only the
// prefixes it has served. Round-robin spreads every prefix class over
// every replica (each must cache everything); prefix-affinity
// consistent-hashes the prompt prefix so sharing requests co-locate and
// the fleet's caches partition the prefix space — the PagedAttention
// sharing insight lifted one level up.
//
// There is one serve loop (drive, stream.go): it pulls arrivals from a
// workload.Source, places each one through the single placement step
// (place), and dispatches it to the owning replica's shard mailbox.
// Serve, ServeOnline and ServeStream differ only in the loop's horizon
// policy — when every shard is parked at one simulated instant so the
// router may read live replica state and run cross-replica operations:
// never (Serve, and ServeStream with a load-oblivious built-in router:
// routers see estimate-drained loads, Load.Live false), at every
// arrival (ServeOnline, and any fleet or chaos config: live per-arrival
// state, fleet store, migration, crash recovery), or every 10 ms of
// simulated time (ServeStream with a router that reads loads: epoch
// snapshots). Engines are goroutine-confined to their
// shard; the router touches them only inside a barrier section, after
// every shard has acked. Retired prompts go back to a recycling source
// through per-shard locked lists, with no barrier.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"jenga/internal/chaos"
	"jenga/internal/core"
	"jenga/internal/detmap"
	"jenga/internal/engine"
	"jenga/internal/fleet"
	"jenga/internal/gpu"
	"jenga/internal/metrics"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// Config configures a Cluster.
type Config struct {
	// Spec is the model every replica serves (required).
	Spec *model.Spec
	// Device is each replica's simulated GPU (default H100).
	Device gpu.Device
	// Replicas is the number of engine replicas (required, ≥ 1).
	Replicas int
	// Policy selects a built-in router (ignored when Router is set).
	Policy RouterPolicy
	// Router overrides Policy with a custom implementation.
	Router Router
	// NewManager builds replica i's memory manager. Default: a Jenga
	// manager with prefix caching and request-aware placement on
	// CapacityBytes.
	NewManager func(replica int) (core.Manager, error)
	// CapacityBytes is the per-replica KV budget for the default
	// manager (0 → gpu.KVBudget for Spec on Device).
	CapacityBytes int64
	// HostTierBytes is each default manager's host-memory KV tier
	// budget (0 = no tier): whole-large-page eviction then spills to
	// host instead of discarding, and prefix lookups restore spilled
	// blocks over PCIe. Ignored when NewManager is set — a custom
	// manager configures its own tier.
	HostTierBytes int64
	// PreemptMode forwards the preemption strategy to every replica
	// engine: recompute (default, historical) or swap (preemption
	// victims move to the host tier and resume by restore).
	PreemptMode engine.PreemptMode
	// AffinityPrefixTokens is the prompt prefix length PrefixAffinity
	// hashes (default 256).
	AffinityPrefixTokens int
	// VNodes is the consistent-hash ring points per replica (default 64).
	VNodes int
	// Admission forwards an admission policy to every replica engine:
	// online serving sheds at each request's arrival instant against
	// that replica's live memory and queue state. Nil admits all.
	Admission engine.AdmissionPolicy
	// Scheduler forwards a scheduling policy (admission order,
	// preemption victims, prefill/decode budget) to every replica
	// engine. Nil means FCFS, the historical behavior.
	Scheduler sched.Scheduler
	// NewScheduler, when set, overrides Scheduler per replica — a
	// heterogeneous fleet can run, say, one SJF latency replica next
	// to FairShare bulk replicas. Returning nil for a replica falls
	// back to Scheduler (and from there to FCFS).
	NewScheduler func(replica int) sched.Scheduler
	// SLOTTFT is the fleet time-to-first-token target SLO attainment
	// is measured against (0: attainment over per-request deadlines).
	SLOTTFT time.Duration
	// Fleet configures the cluster-wide KV store and live request
	// migration (see FleetPolicy); it runs under the every-arrival
	// horizon, so ServeOnline and ServeStream apply it and Serve does
	// not. Zero value: disabled — no directory, no peer transfers, no
	// migration.
	Fleet FleetPolicy
	// Chaos attaches a deterministic fault-injection plan and the
	// recovery machinery (see ChaosPolicy). Zero value: no faults,
	// bit-identical to a chaos-free cluster.
	Chaos ChaosPolicy
	// EventSink, when set, receives every replica engine's events
	// tagged with the replica index. One replica's events come from one
	// goroutine at a time (its shard, or the router inside a barrier
	// section), but different replicas' events arrive concurrently, so
	// implementations must be goroutine-safe across replicas.
	EventSink func(replica int, ev engine.Event)
}

// ReplicaResult is one replica's share of a cluster run.
type ReplicaResult struct {
	// Replica is the replica index.
	Replica int
	// Requests is how many requests were routed here.
	Requests int
	// RoutedTokens is the work routed here (prompt + output tokens).
	RoutedTokens int64
	// Result is the replica engine's result. Its PerRequest is empty:
	// a cluster's engines retire their records into the fleet roll-up
	// (Result.Latency) and retain none.
	Result *engine.Result
}

// Result aggregates one cluster run: the replicas' totals summed into
// fleet totals, the roll-up of every finished request's record, and
// what only the cluster knows — placement, fairness across tenants,
// migrations and the chaos plan's toll.
type Result struct {
	// Policy is the router that produced this run.
	Policy string
	// Replicas is the fleet size.
	Replicas int
	// Totals sums the replicas (engine.Totals.Add): Duration is the
	// slowest replica's, every rate is exact over the fleet's sums.
	engine.Totals
	// Latency is the roll-up over every finished request in the fleet,
	// SLOAttainment measured against Config.SLOTTFT.
	engine.Latency
	// Imbalance is max/mean of per-replica routed tokens (1.0 = even).
	Imbalance float64
	// MeanKVUtil averages the per-replica mean KV utilization.
	MeanKVUtil float64
	// GroupJain is Jain's fairness index over per-group (tenant)
	// served tokens across the whole fleet: 1.0 means every prefix
	// group received an even share of the fleet's work, 1/groups
	// means one group got everything. 1 when no request finished or
	// no request carries a group label.
	GroupJain float64
	// MaxGroupMeanTTFT is the worst per-group mean TTFT — the
	// starvation indicator a fair scheduler bounds: under overload a
	// starving tenant's mean TTFT grows without bound while the
	// fleet-wide mean stays flat.
	MaxGroupMeanTTFT time.Duration
	// StarvedGroups counts groups that were routed at least one
	// request but finished none.
	StarvedGroups int
	// Migrations counts the live request migrations Cluster.migrate
	// completed — not the ones that rolled back, and not crash
	// redispatches, which have their own counters below.
	Migrations int
	// Crashes and Restarts count the chaos plan's replica failures
	// applied during the run; Redispatched is how many in-flight
	// requests from crashed replicas were recovered onto survivors,
	// LostRequests how many died with their replica (recovery off, or
	// no survivor to take them).
	Crashes, Restarts int
	Redispatched      int
	LostRequests      int
	// DirInvalidations counts fleet-directory entries dropped by crash
	// recovery; MigrationRollbacks counts migrations that faulted
	// mid-transfer and rolled back to their source replica.
	DirInvalidations   int
	MigrationRollbacks int
	// FetchRetries and FetchFailures are the fleet store's
	// peer-transfer outcome counts for this run (zero without the
	// store): retried attempts, and holder batches that exhausted the
	// retry bound.
	FetchRetries, FetchFailures int64
	// PerReplica holds each replica's share, indexed by replica.
	PerReplica []ReplicaResult
}

// Cluster owns N engine replicas and a router. The serve methods may be
// called repeatedly (replica caches stay warm across calls) but are not
// safe for concurrent use.
type Cluster struct {
	cfg     Config
	router  Router
	engines []*engine.Engine
	// managers holds each replica's manager (same index as engines) —
	// crash recovery needs the core.Crasher surface to cold-restart a
	// replica's memory behind the engine's back.
	managers []core.Manager
	// store is the fleet-wide KV store (nil unless Config.Fleet.Store
	// is on): one prefix directory spanning every replica's host tier
	// plus the peer-transfer path (see internal/fleet).
	store *fleet.Store
	// fetchSeq is fleetFetch's sequence: the store's miss path takes a
	// *core.Sequence, and one built per call would escape. fetchOwn is
	// the scratch it fills a recipe's tokens into (a request routed but
	// not yet arrived, whose engine has not filled them).
	fetchSeq core.Sequence
	fetchOwn []core.Token
	// drainRate is the nominal per-replica serving rate (tokens per
	// simulated second) used to decay Load.Outstanding between
	// arrivals: the cost model's compute-bound token rate.
	drainRate float64
}

// New validates the config and builds the replicas.
func New(cfg Config) (*Cluster, error) {
	if cfg.Spec == nil {
		return nil, &core.ConfigError{Config: "cluster.Config", Field: "Spec", Reason: "model spec is required"}
	}
	if cfg.Replicas < 1 {
		return nil, &core.ConfigError{Config: "cluster.Config", Field: "Replicas", Reason: fmt.Sprintf("need at least 1 replica, got %d", cfg.Replicas)}
	}
	if cfg.Device.Name == "" {
		cfg.Device = gpu.H100()
	}
	newMgr := cfg.NewManager
	if newMgr == nil {
		capacity := cfg.CapacityBytes
		if capacity == 0 {
			budget, err := gpu.KVBudget(cfg.Spec, cfg.Device, 0)
			if err != nil {
				return nil, err
			}
			capacity = budget
		}
		newMgr = func(int) (core.Manager, error) {
			return core.New(core.Config{
				Spec:              cfg.Spec,
				CapacityBytes:     capacity,
				EnablePrefixCache: true,
				RequestAware:      true,
				HostTierBytes:     cfg.HostTierBytes,
			})
		}
	}
	router := cfg.Router
	if router == nil {
		var err error
		router, err = NewRouter(cfg.Policy, cfg.Replicas, cfg.AffinityPrefixTokens, cfg.VNodes)
		if err != nil {
			return nil, err
		}
	}
	c := &Cluster{cfg: cfg, router: router, managers: make([]core.Manager, 0, cfg.Replicas)}
	for i := 0; i < cfg.Replicas; i++ {
		mgr, err := newMgr(i)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d manager: %w", i, err)
		}
		c.managers = append(c.managers, mgr)
		scheduler := cfg.Scheduler
		if cfg.NewScheduler != nil {
			if s := cfg.NewScheduler(i); s != nil {
				scheduler = s
			}
		}
		eng, err := engine.New(engine.Config{
			Spec:        cfg.Spec,
			Device:      cfg.Device,
			Manager:     mgr,
			Admission:   cfg.Admission,
			Scheduler:   scheduler,
			PreemptMode: cfg.PreemptMode,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: replica %d engine: %w", i, err)
		}
		if cfg.EventSink != nil {
			sink, replica := cfg.EventSink, i
			eng.SetEventSink(func(ev engine.Event) { sink(replica, ev) })
		}
		c.engines = append(c.engines, eng)
	}
	c.attachFleet(c.managers)
	// 2 FLOPs per active parameter per token, compute-bound: the same
	// first-order term the cost model charges per scheduled token.
	if f := cfg.Device.FLOPS; f > 0 {
		c.drainRate = f / (2 * float64(cfg.Spec.ActiveParamCount()))
	}
	return c, nil
}

// The horizon policy is when drive parks every shard at one simulated
// instant (a barrier): never (Serve, and ServeStream with a
// load-oblivious built-in router), at every arrival (ServeOnline, and
// ServeStream with a fleet or chaos config), or — any positive value,
// ServeStream with a router that reads loads — every that much
// simulated time.
const (
	horizonNever        time.Duration = -1
	horizonEveryArrival time.Duration = 0
)

// pass is the state of one pass over an arrival stream: the loads the
// router sees, and the fleet view barrier sections maintain.
type pass struct {
	loads        []Load
	lastArrival  time.Duration
	routedGroups map[int64]int
	// drained marks replicas scaled down out of service; drainFired
	// latches the one-shot scale-down.
	drained    []bool
	drainFired bool
	// cands is the scratch list rebalancing and drains read a replica's
	// migration candidates into.
	cands []engine.MigrationCandidate
	// cur walks the chaos plan's point events and failure streams (nil
	// unless the pass runs barrier sections under a plan — every fault
	// check short-circuits off).
	cur       *chaos.Cursor
	storeBase fleet.StoreStats
	// out is the pass's Result; barrier sections count what they did
	// (crashes, redispatches, rollbacks, …) straight into it and
	// aggregate fills in the rest.
	out Result
	// shards are the replica event loops.
	shards []*streamShard
	// barriers counts the barriers the pass fired: none with no
	// horizon, one per epoch crossed, or one per arrival plus one per
	// rebalance and chaos event.
	barriers int
}

// newPass starts a pass. Stateful built-in routers are reset, so
// placement is a pure function of the stream and two serve calls over
// one stream see the identical assignment (a custom stateful Router
// keeps its own state across passes and forfeits that guarantee).
func (c *Cluster) newPass() *pass {
	if r, ok := c.router.(resettable); ok {
		r.reset()
	}
	n := len(c.engines)
	p := &pass{
		loads:        make([]Load, n),
		routedGroups: make(map[int64]int),
		drained:      make([]bool, n),
	}
	for i := range p.loads {
		p.loads[i].Replica = i
	}
	if c.store != nil {
		p.storeBase = c.store.Stats()
	}
	return p
}

// place is the one placement step: drain the estimated outstanding work
// at the nominal serving rate for the time since the previous arrival,
// ask the router, fall over when its pick is out of service, and book
// the request against the chosen replica.
func (c *Cluster) place(p *pass, r *workload.Request) int {
	if dt := (r.Arrival - p.lastArrival).Seconds(); dt > 0 && c.drainRate > 0 {
		for j := range p.loads {
			p.loads[j].Outstanding = max(p.loads[j].Outstanding-c.drainRate*dt, 0)
		}
	}
	p.lastArrival = r.Arrival
	rep := c.router.Route(r, p.loads)
	if rep < 0 || rep >= len(p.loads) {
		rep = 0 // defensive: a broken custom router must not panic the run
	}
	if p.drained[rep] || p.loads[rep].Health != Healthy {
		// The router's pick is out of service (drained or dead — states
		// only a barrier section sets): fall over to the coolest healthy
		// survivor (lowest index on ties). With nowhere better to go the
		// pick stands.
		if alt := c.coolestReplica(p, -1); alt >= 0 {
			rep = alt
		}
	}
	work := int64(r.PromptLen() + r.OutputLen)
	l := &p.loads[rep]
	l.Requests++
	l.RoutedTokens += work
	l.Outstanding += float64(work)
	if l.Live {
		// Optimistic deltas over the last snapshot: it cannot see work
		// routed after it, so without them a load-aware router dumps a
		// whole epoch's arrivals on whichever replica the snapshot showed
		// coolest. The next horizon overwrites both with measured values.
		l.OutstandingTokens += work
		l.QueueDepth++
	}
	p.routedGroups[r.Group]++
	return rep
}

// sortedByArrival returns reqs itself when it is in arrival order, else
// a stably sorted copy: the serve loop only reads the caller's slice.
func sortedByArrival(reqs []workload.Request) []workload.Request {
	byArrival := func(a, b workload.Request) int { return cmp.Compare(a.Arrival, b.Arrival) }
	if slices.IsSortedFunc(reqs, byArrival) {
		return reqs
	}
	stream := slices.Clone(reqs)
	slices.SortStableFunc(stream, byArrival)
	return stream
}

// Serve is the batch path: the serve loop with no horizon. Routers see
// estimate-drained loads only (Load.Live stays false), nothing reads a
// replica before the stream ends, and every replica runs its share on
// its own shard. Fleet and chaos events need barrier sections and do
// not run here.
func (c *Cluster) Serve(reqs []workload.Request) (*Result, error) {
	return c.drive(c.newPass(), workload.SliceSource(sortedByArrival(reqs)), len(c.engines), horizonNever, len(reqs))
}

// ServeOnline drives the fleet as an online event-driven system in
// simulated time: the serve loop with a horizon at every arrival. Every
// replica is advanced to each request's arrival instant, the router
// places the request against the replicas' *live* state — measured KV
// usage, queue depth and outstanding work, not drained estimates — and
// the replica's admission policy may still shed it. The fleet store,
// scale-down drain, rebalancing migration and the chaos plan's crash
// and restart events run in the barrier sections this horizon opens,
// each at its exact simulated instant.
func (c *Cluster) ServeOnline(reqs []workload.Request) (*Result, error) {
	return c.drive(c.newPass(), workload.SliceSource(sortedByArrival(reqs)), 1, horizonEveryArrival, len(reqs))
}

// groupAcc is one tenant's exact served-work accumulator.
type groupAcc struct {
	tokens   int64
	finished int
	ttftSum  time.Duration
}

// fleetAcc is what finished requests fold into: the shared roll-up and
// the per-tenant sums behind the cluster's fairness fields. Every pass
// feeds one per shard from the engines' retire sinks, its one feed, and
// merges them after the join.
type fleetAcc struct {
	*engine.Rollup
	groups map[int64]*groupAcc
}

func (a *fleetAcc) group(id int64) *groupAcc {
	g := a.groups[id]
	if g == nil {
		g = &groupAcc{}
		a.groups[id] = g
	}
	return g
}

// retire is the retire sink of a shard's engines: it folds a finished
// request's record.
func (a *fleetAcc) retire(m engine.RequestMetrics) {
	if m.State != engine.EventFinished {
		return
	}
	a.Observe(&m)
	g := a.group(m.Group)
	g.tokens += int64(m.Tokens)
	g.finished++
	g.ttftSum += m.TTFT
}

func (a *fleetAcc) merge(o *fleetAcc) {
	a.Merge(o.Rollup)
	//jenga:order-ok integer sums into the cell keyed by the loop key
	for id, og := range o.groups {
		g := a.group(id)
		g.tokens += og.tokens
		g.finished += og.finished
		g.ttftSum += og.ttftSum
	}
}

// aggregate folds the drained replicas into the fleet view; acc holds
// every finished request's record, folded by the retire sinks.
func (c *Cluster) aggregate(p *pass, acc *fleetAcc) *Result {
	out := &p.out
	out.Policy, out.Replicas = c.router.Name(), len(c.engines)
	shares := make([]float64, len(c.engines))
	for i, e := range c.engines {
		res := e.ResultSnapshot()
		shares[i] = float64(p.loads[i].RoutedTokens)
		out.PerReplica = append(out.PerReplica, ReplicaResult{
			Replica:      i,
			Requests:     p.loads[i].Requests,
			RoutedTokens: p.loads[i].RoutedTokens,
			Result:       res,
		})
		out.Totals.Add(&res.Totals)
		out.MeanKVUtil += res.MeanKVUtil
	}
	out.Rates()
	out.Latency = acc.Latency(out.Duration)
	// Cross-replica fairness and starvation over prefix groups. Sorted
	// traversal keeps the float accumulation order (and so Jain's
	// rounding) identical across runs.
	groupTokens := make([]float64, 0, len(acc.groups))
	for _, g := range detmap.Sorted(acc.groups) {
		groupTokens = append(groupTokens, float64(g.tokens))
		out.MaxGroupMeanTTFT = max(out.MaxGroupMeanTTFT, g.ttftSum/time.Duration(g.finished))
	}
	out.GroupJain = metrics.Jain(groupTokens)
	for g, routed := range p.routedGroups {
		if routed > 0 && acc.groups[g] == nil {
			out.StarvedGroups++
		}
	}
	out.MeanKVUtil /= float64(len(c.engines))
	out.Imbalance = metrics.Imbalance(shares)
	if c.store != nil {
		ss := c.store.Stats()
		out.FetchRetries = ss.Retries - p.storeBase.Retries
		out.FetchFailures = ss.Failed - p.storeBase.Failed
	}
	return out
}
