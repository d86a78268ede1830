package cluster

import (
	"time"

	"jenga/internal/core"
	"jenga/internal/fleet"
)

// FleetPolicy configures the cluster-wide KV store and live request
// migration (internal/fleet). The zero value disables everything: no
// directory, no peer transfers, no migration — the cluster is
// bit-identical to a fleet-unaware one. Every mechanism here is a
// cross-replica operation, so it runs only inside the barrier sections
// of the every-arrival horizon (ServeOnline, and ServeStream whenever
// the policy is enabled), where all shards are parked at one instant.
type FleetPolicy struct {
	// Store enables the fleet-wide KV store: every replica's host tier
	// registers its content in a shared prefix directory, and a local
	// prefix miss at routing time fetches a peer's spilled pages over
	// the device peer link (gpu.Device.LinkBW) instead of recomputing.
	// Requires the replicas to have host tiers (Config.HostTierBytes
	// or a tiered custom manager); without one the store never holds
	// anything and fetches never fire.
	Store bool
	// Migrate enables live request migration: replica drain evacuates
	// in-flight requests to the surviving replicas instead of shedding
	// them, and ImbalanceThreshold rebalancing moves work off hot
	// replicas. With Store also set, a migrated request's swapped
	// pages follow it over the peer link; without, the destination
	// restores what its own cache holds and recomputes the rest.
	Migrate bool
	// ImbalanceThreshold triggers a rebalancing migration when the
	// hottest replica's outstanding tokens exceed threshold × the
	// fleet mean (values ≤ 1 or Migrate unset: no rebalancing). One
	// request moves per arrival, hottest replica to coolest, so
	// rebalancing can never thrash faster than the offered load.
	ImbalanceThreshold float64
	// DrainAfter, when positive, drains the DrainReplicas
	// highest-indexed replicas at the first arrival at or past it
	// (scale-down): their live requests migrate (Migrate) or shed
	// (otherwise), and the router stops placing new work on them.
	DrainAfter time.Duration
	// DrainReplicas is how many replicas DrainAfter removes
	// (default 1, capped at Replicas-1).
	DrainReplicas int
}

// enabled reports whether any fleet mechanism is on.
func (p FleetPolicy) enabled() bool {
	return p.Store || p.Migrate || p.DrainAfter > 0
}

// arrivalSection opens the barrier section an arrival at instant at is
// placed in: chaos events due by then apply at their own instants,
// every replica advances to at, and the one-shot scale-down fires at
// the first arrival at or past its deadline.
func (c *Cluster) arrivalSection(p *pass, at time.Duration) error {
	if err := c.applyChaos(p, at); err != nil {
		return err
	}
	if err := p.barrier(at); err != nil {
		return err
	}
	if d := c.cfg.Fleet.DrainAfter; d > 0 && !p.drainFired && at >= d {
		p.drainFired = true
		c.drainReplicas(p)
	}
	return nil
}

// fleetFetch runs the fleet-store miss path for a request about to be
// admitted on replica rep, whose sequence is prompt followed by out: if
// the directory says peers extend rep's local prefix, the pages move
// into rep's host tier now and the wire bytes are charged to rep's next
// step as peer-link DMA. Barrier sections run one at a time, so the
// cluster's one fetch sequence is free on entry; the tokens are only
// borrowed for the call.
//
//jenga:hotpath
func (c *Cluster) fleetFetch(rep int, id int64, prompt, out []core.Token) {
	if c.store == nil || len(prompt)+len(out) == 0 {
		return
	}
	c.fetchSeq = core.Sequence{ID: core.RequestID(id), PromptLen: len(prompt), Tokens: prompt, Out: out}
	now := core.Tick(c.engines[rep].SnapshotTotals().Step)
	if fr := c.store.Fetch(rep, &c.fetchSeq, now); fr.Bytes > 0 {
		c.engines[rep].RecordPeerFetch(fr.Tokens, fr.Bytes)
	}
	c.fetchSeq.Tokens, c.fetchSeq.Out = nil, nil
}

// migrate moves one live request from replica src to replica dst:
// swap out (the source tier keeps the pages and registers them in the
// directory), fetch the pages into dst's tier when the store is on,
// resume on dst through the ordinary re-admission path. Reports false
// for unknown IDs and for migrations the chaos plan fails mid-
// transfer: those roll back whole to the source — the swapped pages
// are still in its tier, so MigrateIn re-queues the request exactly
// where it left — unless the source is draining out of service, in
// which case the request is shed (its one terminal event).
func (c *Cluster) migrate(p *pass, src, dst int, id int64) bool {
	m, ok := c.engines[src].MigrateOut(id)
	if !ok {
		return false
	}
	if p.cur != nil && p.cur.FailMigration() {
		p.out.MigrationRollbacks++
		c.engines[src].MigrateIn(m)
		if p.drained[src] {
			c.engines[src].Shed(m.ID())
		}
		return false
	}
	c.fleetFetch(dst, m.ID(), m.Prompt(), m.Out)
	c.engines[dst].MigrateIn(m)
	p.out.Migrations++
	return true
}

// coolestReplica returns the in-service replica with the fewest
// outstanding tokens (lowest index on ties), excluding `exclude`
// (pass a negative to exclude none); dead and drained replicas are
// never candidates. Returns -1 when no candidate is in service.
func (c *Cluster) coolestReplica(p *pass, exclude int) int {
	best, bestOut := -1, int64(0)
	for i, e := range c.engines {
		if p.drained[i] || i == exclude || p.loads[i].Health == Dead {
			continue
		}
		out := e.SnapshotTotals().OutstandingTokens
		if best < 0 || out < bestOut {
			best, bestOut = i, out
		}
	}
	return best
}

// drainReplicas evacuates the fleet's tail replicas for scale-down:
// every live request on a draining replica migrates to the coolest
// surviving replica (Migrate) or is shed (otherwise).
func (c *Cluster) drainReplicas(p *pass) {
	n := len(c.engines)
	k := c.cfg.Fleet.DrainReplicas
	if k <= 0 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	for d := n - k; d < n; d++ {
		p.drained[d] = true
	}
	for d := n - k; d < n; d++ {
		p.cands = c.engines[d].MigrationCandidates(p.cands[:0])
		for _, cand := range p.cands {
			if c.cfg.Fleet.Migrate {
				if dst := c.coolestReplica(p, -1); dst >= 0 {
					// A rolled-back migration sheds internally (the
					// source is draining), so the request still ends
					// with exactly one terminal either way.
					c.migrate(p, d, dst, cand.ID)
					continue
				}
			}
			c.engines[d].Shed(cand.ID)
		}
	}
}

// rebalancing reports whether imbalance rebalancing is configured.
func (c *Cluster) rebalancing() bool {
	return c.cfg.Fleet.Migrate && c.cfg.Fleet.ImbalanceThreshold > 1
}

// rebalance moves one request from the hottest replica to the coolest
// when the imbalance threshold is exceeded. The victim is the
// deterministic first candidate with the most remaining work, running
// requests preferred (their KV rides the transfer path; queued ones
// carry nothing).
func (c *Cluster) rebalance(p *pass) {
	thr := c.cfg.Fleet.ImbalanceThreshold
	var total int64
	hot, hotOut := -1, int64(0)
	live := 0
	for i, e := range c.engines {
		if p.drained[i] || p.loads[i].Health == Dead {
			continue
		}
		live++
		out := e.SnapshotTotals().OutstandingTokens
		total += out
		if out > hotOut {
			hot, hotOut = i, out
		}
	}
	if live < 2 || hot < 0 {
		return
	}
	mean := float64(total) / float64(live)
	if mean <= 0 || float64(hotOut) <= thr*mean {
		return
	}
	var victim int64 = -1
	best, bestRunning := 0, false
	p.cands = c.engines[hot].MigrationCandidates(p.cands[:0])
	for _, cand := range p.cands {
		better := cand.Remaining > best || (cand.Remaining == best && cand.Running && !bestRunning)
		if victim < 0 || (cand.Running && !bestRunning) || (cand.Running == bestRunning && better) {
			victim, best, bestRunning = cand.ID, cand.Remaining, cand.Running
		}
	}
	if victim < 0 {
		return
	}
	if dst := c.coolestReplica(p, hot); dst >= 0 {
		c.migrate(p, hot, dst, victim)
	}
}

// attachFleet builds the store and wires every replica's tier into
// the shared directory (called from New when the policy asks for it).
// Migration without the store needs no wiring at all: MigrateOut
// swaps the source's pages cache-preservingly either way, but nothing
// fetches across replicas — the destination restores what its own
// cache holds and recomputes the rest.
func (c *Cluster) attachFleet(managers []core.Manager) {
	if !c.cfg.Fleet.Store {
		return
	}
	c.store = fleet.NewStore(len(managers))
	for i, m := range managers {
		c.store.Attach(i, m)
	}
}
