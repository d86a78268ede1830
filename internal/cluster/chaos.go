package cluster

import (
	"fmt"
	"time"

	"jenga/internal/chaos"
	"jenga/internal/core"
)

// ChaosPolicy attaches a deterministic fault-injection plan to the
// cluster (see internal/chaos). The zero value disables everything —
// a cluster without a plan is bit-identical to one built before chaos
// existed.
//
// Crash/restart events and transfer faults are cross-replica operations
// and apply in the barrier sections of the every-arrival horizon
// (ServeOnline, and ServeStream whenever a plan is attached), each at
// its exact simulated instant.
type ChaosPolicy struct {
	// Plan is the seeded fault schedule. Nil: no faults.
	Plan *chaos.Plan
	// Recover enables the recovery machinery: crashed replicas'
	// directory entries are invalidated, their in-flight requests are
	// re-dispatched to survivors (recompute from prompt), and peer
	// transfers retry up to recoveryFetchAttempts times per batch
	// before falling back to local recompute. Without it the cluster
	// takes the faults raw: crashed requests are lost, dangling
	// directory entries linger until tier churn clears them, and every
	// transfer gets exactly one attempt.
	Recover bool
}

// recoveryFetchAttempts is the recovery-mode transfer retry bound.
const recoveryFetchAttempts = 3

// enabled reports whether a plan is attached.
func (p ChaosPolicy) enabled() bool { return p.Plan != nil }

// attempts is the per-batch peer-transfer attempt bound.
func (p ChaosPolicy) attempts() int {
	if p.Recover {
		return recoveryFetchAttempts
	}
	return 1
}

// Health is a replica's liveness as the router sees it.
type Health uint8

const (
	// Healthy: serving normally.
	Healthy Health = iota
	// Dead: crashed and not yet restarted — never routed to.
	Dead
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// applyChaos applies every pending event with At ≤ upTo, in
// order, each in its own barrier section: all replicas advance to the
// event instant first, so a crash takes exactly the progress made
// before it and nothing after.
func (c *Cluster) applyChaos(p *pass, upTo time.Duration) error {
	if p.cur == nil {
		return nil
	}
	for {
		ev, ok := p.cur.Peek()
		if !ok || ev.At > upTo {
			return nil
		}
		if err := p.barrier(ev.At); err != nil {
			return err
		}
		switch ev.Kind {
		case chaos.KindCrash:
			if err := c.crashReplica(p, ev.Replica); err != nil {
				return err
			}
		case chaos.KindRestart:
			c.restartReplica(p, ev.Replica)
		}
		p.cur.Pop()
	}
}

// crashReplica kills one replica at the current instant: every
// in-flight request's KV and queue state is lost and its manager
// restarts cold. With recovery on, the fleet reacts — the directory
// drops the dead holder's entries and the lost requests re-dispatch to
// the coolest survivors, recomputing from their prompts. Without it
// the requests die with the replica. A replica that cannot restart
// cold fails the run: serving on would read undefined manager state.
func (c *Cluster) crashReplica(p *pass, rep int) error {
	if rep < 0 || rep >= len(c.engines) || p.loads[rep].Health == Dead {
		return nil
	}
	p.loads[rep].Health = Dead
	p.out.Crashes++
	lost := c.engines[rep].CrashOut()
	if cr, ok := c.managers[rep].(core.Crasher); ok {
		// The tier dies with the process: CrashReset swaps in a cold
		// manager behind the same pointer the engine and store hold.
		if err := cr.CrashReset(); err != nil {
			return fmt.Errorf("cluster: replica %d: crash reset: %w", rep, err)
		}
	}
	if !c.cfg.Chaos.Recover {
		p.out.LostRequests += len(lost)
		return nil
	}
	if c.store != nil {
		p.out.DirInvalidations += c.store.Crash(rep)
	}
	for _, m := range lost {
		dst := c.coolestReplica(p, rep)
		if dst < 0 {
			p.out.LostRequests++
			continue
		}
		c.engines[dst].MigrateIn(m)
		p.out.Redispatched++
	}
	return nil
}

// restartReplica brings a crashed replica back with a cold tier. Its
// manager was already reset at crash time; new content re-registers in
// the directory through the still-attached observer as it is spilled.
func (c *Cluster) restartReplica(p *pass, rep int) {
	if rep < 0 || rep >= len(c.engines) || p.loads[rep].Health != Dead {
		return
	}
	p.loads[rep].Health = Healthy
	p.out.Restarts++
}
