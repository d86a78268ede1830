//jenga:concurrent the one serve loop: replica shards, bounded mailboxes, the horizon barrier channels and the prompt hand-back lists
package cluster

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/workload"
)

// StreamConfig tunes ServeStream's sharded event loops. The epoch
// length of a router that reads loads is not a setting: it is
// snapshotEvery.
type StreamConfig struct {
	// Shards is the number of replica event-loop goroutines; replica i
	// runs on shard i mod Shards. 0 or negative defaults to 1; values
	// above the replica count are clamped (an empty shard is useless).
	Shards int
}

const (
	// mailboxDepth bounds each shard's command queue (routed arrivals
	// plus horizons), and so how far the router can run ahead of a
	// shard. Every queued arrival holds a prompt array the source cannot
	// reuse yet, and with no horizon nothing else stops the router: at
	// 256 a barrier-free prefix-affinity stream (16 replicas, 2 shards,
	// 64,000 requests at 4,000 req/s) made a third more host objects per
	// request than the epoch-barrier run it replaced, and a 4% larger
	// peak heap; at 32, 2% and 0.2% more; at 16 no more. 32 still holds
	// an epoch's arrivals at that rate (~20 per shard per 10 ms), so the
	// load-aware path rarely blocks inside an epoch either, and one
	// depth serves every horizon.
	mailboxDepth = 32
	// snapshotEvery is the load-snapshot epoch length K in simulated
	// time for a router that reads loads (LeastLoaded, or any custom
	// Router): replicas publish their SnapshotTotals at every multiple
	// of K, and the router reads those epoch snapshots instead of
	// force-advancing all engines per arrival. Smaller K is fresher load
	// state but more synchronization. It does not apply to a
	// load-oblivious built-in router (PrefixAffinity, RoundRobin), which
	// runs with no snapshots at all, nor to a cluster with a fleet or
	// chaos config, which synchronizes at every arrival (those
	// mechanisms are defined per arrival).
	snapshotEvery = 10 * time.Millisecond
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
	// shard's replicas: the engines' prompt sinks append here (on the
	// shard goroutine, or the router's inside a barrier section), and
	// the router empties it into the source before every Next. mu
	// guards it, so the hand-back needs no barrier. Used only under a
	// recycling source.
	mu    sync.Mutex
	spent [][]core.Token
}

// retired is the prompt sink of the shard's engines.
func (s *streamShard) retired(prompt []core.Token) {
	s.mu.Lock()
	s.spent = append(s.spent, prompt)
	s.mu.Unlock()
}

// run is the shard goroutine body. On an error, or a panic, it keeps
// consuming (and acking horizons) so the router never blocks; the
// router sees the error at the next barrier or after the join.
func (s *streamShard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for cmd := range s.cmds {
		if !cmd.horizon {
			s.guard(cmd.rep, func() error { return s.submit(cmd) })
			continue
		}
		for _, rep := range s.owned {
			s.guard(rep, func() error { return s.publish(rep, cmd.at) })
		}
		s.ack <- struct{}{}
	}
	for _, rep := range s.owned {
		s.guard(rep, func() error { return replicaErr(rep, s.engines[rep].Drain()) })
	}
}

// guard runs f, work on replica rep, unless the shard has failed
// already, and keeps f's error as the shard's — or its panic, as an
// error naming the replica, with the stack.
func (s *streamShard) guard(rep int, f func() error) {
	if s.err != nil {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			s.err = fmt.Errorf("cluster: replica %d: panic: %v\n%s", rep, v, debug.Stack())
		}
	}()
	s.err = f()
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
// workload, config and horizon policy, whatever the shard count.
func (p *pass) barrier(at time.Duration) error {
	p.barriers++
	for _, s := range p.shards {
		s.cmds <- streamCmd{at: at, horizon: true}
	}
	var err error
	for _, s := range p.shards {
		<-s.ack
		if err == nil {
			err = s.err
		}
	}
	return err
}

// recycle hands the prompts the shards' engines are done with back to
// the source. routeAll calls it before every Next, whatever the
// horizon, so the source can write the arrival it is about to make over
// an array retired a moment ago. Each shard's list is swapped for the
// pass's emptied one under the shard's lock and handed back outside it.
func (p *pass) recycle() {
	if p.recycler == nil {
		return
	}
	for _, s := range p.shards {
		s.mu.Lock()
		s.spent, p.spent = p.spent[:0], s.spent
		s.mu.Unlock()
		for i, prompt := range p.spent {
			p.recycler.Recycle(prompt)
			p.spent[i] = nil
		}
	}
}

// drive is the serve loop behind Serve, ServeOnline and ServeStream: a
// conservative parallel discrete-event simulation. It runs pass p (from
// newPass): pulls arrivals from src (non-decreasing), fires a barrier
// when the horizon policy every says so, places each arrival and sends
// it to its replica's shard; at EOF the shards drain their replicas and
// the results fold into one Result. Engines retire finished records
// into their shard's fleetAcc and retain none; exact only picks its
// Rollup's kind: exact percentiles, or histograms whose memory stays
// bounded at any request count.
func (c *Cluster) drive(p *pass, src workload.Source, shards int, every time.Duration, exact bool) (*Result, error) {
	n := len(c.engines)
	shards = min(max(shards, 1), n)
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
		// Sink calls run on the owning shard's goroutine, or on the
		// router's inside a barrier section.
		e.SetRetireSink(s.acc.retire)
		defer e.SetRetireSink(e.Retain)
		if p.recycler != nil {
			e.SetPromptSink(s.retired)
			defer e.SetPromptSink(nil)
		}
	}
	if err := c.runShards(p, src, every); err != nil {
		return nil, err
	}
	acc := p.shards[0].acc
	for _, s := range p.shards[1:] {
		acc.merge(s.acc)
	}
	return c.aggregate(p, acc), nil
}

// runShards starts the shards, routes the stream to them (routeAll) and
// joins them. Every exit — a router-side panic included, which it
// reports as an error with the stack — closes the mailboxes and waits
// for the shards; the router's error comes first, then the shards' in
// shard order.
func (c *Cluster) runShards(p *pass, src workload.Source, every time.Duration) (err error) {
	var wg sync.WaitGroup
	for _, s := range p.shards {
		wg.Add(1)
		go s.run(&wg)
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("cluster: panic: %v\n%s", v, debug.Stack())
		}
		for _, s := range p.shards {
			close(s.cmds)
		}
		wg.Wait()
		for _, s := range p.shards {
			if err == nil {
				err = s.err
			}
		}
	}()
	return c.routeAll(p, src, every)
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
		p.recycle()
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
			c.fleetFetch(rep, r.ID, r.Shared, r.Prompt, nil)
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
// the shards synchronize only when something reads the synchronized
// state.
//
// A load-oblivious built-in router (prefix affinity, round robin) never
// reads engine state, so the stream runs with no horizon, as Serve does:
// no shard ever waits for another, and every replica receives exactly
// the ServeOnline request sequence — per-replica results are
// bit-identical to ServeOnline's at any shard count. A router that reads
// loads (least-loaded, or any custom Router) reads snapshots published
// every K = 10 ms of simulated time (snapshotEvery) instead of
// force-advancing every engine at every arrival — O(replicas × epochs)
// snapshot work instead of O(replicas × arrivals) — and sees
// epoch-stale state (staleness < K), so its placements are
// statistically — not bit — equivalent. A cluster with a fleet or chaos
// config keeps ServeOnline's every-arrival horizon (that is what those
// mechanisms are defined against), so it matches ServeOnline exactly
// and gains only the streamed source and bounded aggregation.
//
// Arrivals must be non-decreasing (PoissonSource guarantees this).
// Latency percentiles come from log-bucketed histograms (≤ ~4.5%
// relative error, exact min/max); every count, rate and sum in the
// Result is exact.
func (c *Cluster) ServeStream(src workload.Source, sc StreamConfig) (*Result, error) {
	return c.drive(c.newPass(), src, sc.Shards, c.streamHorizon(), false)
}

// streamHorizon is ServeStream's horizon policy: every arrival for a
// fleet or chaos config, none for a load-oblivious built-in router, and
// epochs of snapshotEvery otherwise.
func (c *Cluster) streamHorizon() time.Duration {
	if c.cfg.Fleet.enabled() || c.cfg.Chaos.enabled() {
		return horizonEveryArrival
	}
	if _, ok := c.router.(loadOblivious); ok {
		return horizonNever
	}
	return snapshotEvery
}
