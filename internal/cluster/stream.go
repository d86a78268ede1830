//jenga:concurrent the one serve loop: replica shards, bounded mailboxes, and the horizon barrier channels
package cluster

import (
	"fmt"
	"sync"
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/workload"
)

// StreamConfig tunes ServeStream's sharded event loops.
type StreamConfig struct {
	// Shards is the number of replica event-loop goroutines; replica i
	// runs on shard i mod Shards. 0 or negative defaults to 1; values
	// above the replica count are clamped (an empty shard is useless).
	Shards int
	// SnapshotEvery is the load-snapshot epoch length K in simulated
	// time: replicas publish their SnapshotTotals at every multiple of
	// K, and the router reads those epoch snapshots instead of
	// force-advancing all engines per arrival. Smaller K is fresher
	// load state but more synchronization; 0 defaults to 10ms. A
	// cluster with a fleet or chaos config synchronizes at every
	// arrival instead (those mechanisms are defined per arrival).
	SnapshotEvery time.Duration
}

const (
	// mailboxDepth bounds each shard's command queue (routed arrivals
	// plus horizons): deep enough that the router rarely blocks inside
	// an epoch, shallow enough that a streamed workload stays O(1) in
	// memory.
	mailboxDepth         = 256
	defaultSnapshotEvery = 10 * time.Millisecond
)

// streamCmd is one shard-mailbox entry: a routed arrival (horizon
// false) or a horizon barrier (horizon true). Commands reach each
// shard in router order, so per-replica arrival order is exactly the
// routing order. The request travels by value — the mailbox hands it
// over, the engine copies the header out of the shard's stack into a
// pooled run — so an arrival costs the host no object.
type streamCmd struct {
	req     workload.Request
	rep     int
	at      time.Duration
	horizon bool
}

// streamShard is one replica event loop: shard i of S owns the replicas
// rep with rep mod S == i and consumes its mailbox in FIFO order.
type streamShard struct {
	engines []*engine.Engine
	owned   []int // replica indices, ascending
	cmds    chan streamCmd
	// ack signals one completed horizon. Between a horizon's send and
	// its ack the shard writes its replicas' entries of loads (the
	// pass's slice) and the router touches neither loads nor engines;
	// outside that window the shard is parked on its mailbox and the
	// router may. The channel operations order the two.
	ack   chan struct{}
	loads []Load
	acc   *fleetAcc
	err   error
	// spent collects the prompts of requests that retired on this
	// shard's replicas (the engines' prompt sinks append here, on the
	// shard goroutine); the router hands them back to the source inside
	// the next barrier section. Used only under a recycling source.
	spent [][]core.Token
}

// run is the shard goroutine body. On error it keeps consuming (and
// acking horizons) so the router never blocks; the router sees the
// error at the next barrier or after the join.
func (s *streamShard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range s.cmds {
		switch {
		case cmd.horizon:
			for _, rep := range s.owned {
				if s.err == nil {
					s.err = s.publish(rep, cmd.at)
				}
			}
			s.ack <- struct{}{}
		case s.err == nil:
			s.err = s.submit(cmd)
		}
	}
	for _, rep := range s.owned {
		if s.err == nil {
			s.err = replicaErr(rep, s.engines[rep].Drain())
		}
	}
}

// publish advances replica rep exactly to the horizon and publishes its
// live state.
func (s *streamShard) publish(rep int, at time.Duration) error {
	e := s.engines[rep]
	if err := e.AdvanceTo(at); err != nil {
		return replicaErr(rep, err)
	}
	snap := e.SnapshotTotals()
	l := &s.loads[rep]
	l.Live = true
	l.Usage = snap.Usage
	l.QueueDepth = snap.Pending + snap.Waiting
	l.OutstandingTokens = snap.OutstandingTokens
	return nil
}

// submit hands one routed arrival to its replica at its arrival
// instant.
func (s *streamShard) submit(cmd streamCmd) error {
	e := s.engines[cmd.rep]
	if err := e.AdvanceTo(cmd.req.Arrival); err != nil {
		return replicaErr(cmd.rep, err)
	}
	return replicaErr(cmd.rep, e.Submit(&cmd.req))
}

func replicaErr(rep int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("cluster: replica %d: %w", rep, err)
}

// barrier parks every shard at simulated instant at: each advances its
// replicas exactly there, publishes their snapshots into p.loads, acks,
// and blocks on its mailbox. Until the next send the caller is in a
// barrier section — it may touch engines, managers, the store and the
// directory directly (the ack is the happens-before edge). Snapshots are
// taken at exact simulated instants, so a run is a pure function of
// workload, config and horizon policy, whatever the shard count. Each
// shard's ack also hands over the prompts of the requests that retired
// on it since the last barrier, and they go back to the source here.
func (p *pass) barrier(at time.Duration) error {
	for _, s := range p.shards {
		s.cmds <- streamCmd{at: at, horizon: true}
	}
	var err error
	for _, s := range p.shards {
		<-s.ack
		if err == nil {
			err = s.err
		}
		for i, prompt := range s.spent {
			p.recycler.Recycle(prompt)
			s.spent[i] = nil
		}
		s.spent = s.spent[:0]
	}
	return err
}

// drive is the serve loop behind Serve, ServeOnline and ServeStream: a
// conservative parallel discrete-event simulation. It pulls arrivals
// from src (non-decreasing), fires a barrier when the horizon policy
// every says so, places each arrival and sends it to its replica's
// shard; at EOF the shards drain their replicas and the results fold
// into one Result. With exact set the engines retain per-request
// records (Result.PerRequest, exact percentiles); otherwise they retire
// into per-shard histograms and memory stays bounded at any request
// count. Every exit closes the mailboxes and joins the shards.
func (c *Cluster) drive(src workload.Source, shards int, every time.Duration, exact bool) (*Result, error) {
	n := len(c.engines)
	shards = min(max(shards, 1), n)
	p := c.newPass()
	p.recycler, _ = src.(workload.Recycler)
	for _, e := range c.engines {
		e.Reset()
	}
	p.shards = make([]*streamShard, shards)
	for i := range p.shards {
		p.shards[i] = &streamShard{
			engines: c.engines,
			cmds:    make(chan streamCmd, mailboxDepth),
			ack:     make(chan struct{}, 1),
			loads:   p.loads,
			acc:     &fleetAcc{Rollup: engine.NewRollup(c.cfg.SLOTTFT, exact), groups: make(map[int64]*groupAcc)},
		}
	}
	for rep, e := range c.engines {
		s := p.shards[rep%shards]
		s.owned = append(s.owned, rep)
		if !exact {
			// Sink calls run on the owning shard's goroutine.
			e.SetRetireSink(func(m engine.RequestMetrics) {
				if m.State == engine.EventFinished {
					s.acc.observe(&m)
				}
			})
			defer e.SetRetireSink(e.Retain)
		}
		if p.recycler != nil {
			e.SetPromptSink(func(prompt []core.Token) { s.spent = append(s.spent, prompt) })
			defer e.SetPromptSink(nil)
		}
	}
	var wg sync.WaitGroup
	for _, s := range p.shards {
		wg.Add(1)
		go s.run(&wg)
	}
	err := c.routeAll(p, src, every)
	for _, s := range p.shards {
		close(s.cmds)
	}
	wg.Wait()
	for _, s := range p.shards {
		if err == nil {
			err = s.err
		}
	}
	if err != nil {
		return nil, err
	}
	acc := p.shards[0].acc
	for _, s := range p.shards[1:] {
		acc.merge(s.acc)
	}
	return c.aggregate(p, acc), nil
}

// routeAll is drive's serial part: everything between starting the
// shards and closing their mailboxes.
func (c *Cluster) routeAll(p *pass, src workload.Source, every time.Duration) error {
	sections := every == horizonEveryArrival
	if plan := c.cfg.Chaos.Plan; sections && plan != nil {
		p.cur = plan.Start()
		if c.store != nil {
			c.store.SetFaults(p.cur, c.cfg.Chaos.attempts())
			defer c.store.SetFaults(nil, 1)
		}
	}
	epoch := int64(-1)
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if r.Arrival < p.lastArrival {
			return fmt.Errorf("cluster: arrivals must be non-decreasing (got %v after %v)", r.Arrival, p.lastArrival)
		}
		switch {
		case sections:
			if err := c.arrivalSection(p, r.Arrival); err != nil {
				return err
			}
		case every > 0 && int64(r.Arrival/every) > epoch:
			// Epoch change: barrier every shard at the boundary E·K.
			epoch = int64(r.Arrival / every)
			if err := p.barrier(time.Duration(epoch) * every); err != nil {
				return err
			}
		}
		rep := c.place(p, r)
		if sections {
			c.fleetFetch(rep, r.ID, len(r.Prompt), r.Prompt)
		}
		p.shards[rep%len(p.shards)].cmds <- streamCmd{req: *r, rep: rep}
		if sections && c.rebalancing() {
			// Rebalancing weighs the replicas with this arrival on board:
			// wait for its shard to take it in.
			if err := p.barrier(r.Arrival); err != nil {
				return err
			}
			c.rebalance(p)
		}
	}
	if sections {
		// Crashes scheduled after the last arrival.
		return c.applyChaos(p, 1<<62)
	}
	return nil
}

// ServeStream is the scale path: the workload streams in (never
// materialized), finished requests fold into fixed-size histograms, and
// routing reads load snapshots published every SnapshotEvery of
// simulated time instead of force-advancing every engine at every
// arrival — O(replicas × epochs) snapshot work instead of
// O(replicas × arrivals).
//
// For a load-oblivious router (prefix affinity, round robin) routing
// never reads engine state at all, and every replica receives exactly
// the ServeOnline request sequence: per-replica results are
// bit-identical to ServeOnline's at any shard count. Load-aware routers
// see epoch-stale state (staleness < K), so their placements are
// statistically — not bit — equivalent. A cluster with a fleet or chaos
// config keeps ServeOnline's every-arrival horizon (that is what those
// mechanisms are defined against), so it matches ServeOnline exactly
// and gains only the streamed source and bounded aggregation.
//
// Arrivals must be non-decreasing (PoissonSource and MergeSources
// guarantee this). Latency percentiles come from log-bucketed
// histograms (≤ ~4.5% relative error, exact min/max); every count, rate
// and sum in the Result is exact.
func (c *Cluster) ServeStream(src workload.Source, sc StreamConfig) (*Result, error) {
	every := sc.SnapshotEvery
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	if c.cfg.Fleet.enabled() || c.cfg.Chaos.enabled() {
		every = horizonEveryArrival
	}
	return c.drive(src, sc.Shards, every, false)
}
