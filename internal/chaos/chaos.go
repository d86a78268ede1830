// Package chaos is the fleet's deterministic fault injector: a
// seeded, immutable Plan of timed fault events that the cluster
// replays against a run's simulated clock.
//
// Faults are point events — replica crash (the GPU heap, the host tier
// and every in-flight request die with the process) and restart (the
// replica returns with a cold tier) — each fired once, at an instant.
// On top of the schedule, a Plan carries per-transfer failure rates for
// fleet peer fetches and migration moves, drawn from a seeded stream.
//
// Everything is deterministic and replayable: a Plan is pure data, a
// Cursor (Plan.Start) holds one run's replay position and its seeded
// failure stream, and two runs of the same plan over the same arrival
// stream make identical decisions at identical instants. The zero
// plan — no events, zero rates — injects nothing, and the layers
// consuming it are bit-identical to a chaos-unaware build (the
// golden-pinned contract).
//
// The package is a leaf: it knows nothing about engines, replicas or
// pages, only instants and draws. The cluster layer owns
// applying the events (internal/cluster's ChaosPolicy).
package chaos

import (
	"fmt"
	"sort"
	"time"
)

// Kind classifies a fault event.
type Kind uint8

const (
	// KindCrash kills a replica at Event.At: tier contents and
	// in-flight KV are lost, the router stops sending traffic.
	KindCrash Kind = iota
	// KindRestart returns a crashed replica to service with a cold
	// tier.
	KindRestart
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindRestart:
		return "restart"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one timed fault against one replica.
type Event struct {
	Kind    Kind
	Replica int
	// At is the fault instant.
	At time.Duration
}

// Plan is a seeded, reproducible fault schedule. Build one with
// NewPlan and the chainable event methods, set the transfer failure
// rates directly, then hand it to the cluster; the plan itself is
// immutable during a run (all per-run state lives in a Cursor).
type Plan struct {
	// Seed drives the transfer-failure stream (and nothing else: the
	// event schedule is explicit).
	Seed int64
	// FetchFailRate is the probability that one fleet peer-transfer
	// attempt fails (timeout/link error); MigrateFailRate the same for
	// one migration page move. Both are per-attempt draws from the
	// seeded stream; zero never fails.
	FetchFailRate   float64
	MigrateFailRate float64
	// Events is the schedule, kept sorted by At (stable, so
	// same-instant events apply in insertion order).
	Events []Event
}

// NewPlan returns an empty plan with the given seed.
func NewPlan(seed int64) *Plan { return &Plan{Seed: seed} }

// Crash schedules a replica crash at the instant.
func (p *Plan) Crash(replica int, at time.Duration) *Plan {
	return p.add(Event{Kind: KindCrash, Replica: replica, At: at})
}

// Restart schedules a crashed replica's cold restart at the instant.
func (p *Plan) Restart(replica int, at time.Duration) *Plan {
	return p.add(Event{Kind: KindRestart, Replica: replica, At: at})
}

// add inserts the event keeping Events sorted by At, stable on ties.
func (p *Plan) add(ev Event) *Plan {
	i := sort.Search(len(p.Events), func(i int) bool { return p.Events[i].At > ev.At })
	p.Events = append(p.Events, Event{})
	copy(p.Events[i+1:], p.Events[i:])
	p.Events[i] = ev
	return p
}

// Cursor is one run's mutable view of a plan: the replay position
// over the events and the seeded transfer-failure stream.
//
// A Cursor is not safe for concurrent use; the cluster only consults
// it from its serial arrival loop.
type Cursor struct {
	plan *Plan
	next int    // index into plan.Events of the next candidate
	rng  uint64 // splitmix64 state for the failure stream
}

// Start returns a fresh cursor positioned before the first event,
// with the failure stream reset to the seed.
func (p *Plan) Start() *Cursor {
	return &Cursor{plan: p, rng: uint64(p.Seed)}
}

// Peek returns the next unapplied event without consuming it.
func (c *Cursor) Peek() (Event, bool) {
	if c.next >= len(c.plan.Events) {
		return Event{}, false
	}
	return c.plan.Events[c.next], true
}

// Pop consumes the event Peek returned.
func (c *Cursor) Pop() {
	if c.next < len(c.plan.Events) {
		c.next++
	}
}

// FailFetch draws once from the seeded stream against FetchFailRate:
// true means this peer-transfer attempt fails.
func (c *Cursor) FailFetch() bool {
	return c.draw() < c.plan.FetchFailRate
}

// FailMigration draws once against MigrateFailRate: true means this
// migration transfer times out.
func (c *Cursor) FailMigration() bool {
	return c.draw() < c.plan.MigrateFailRate
}

// FailTransfer adapts FailFetch onto the fleet store's fault hook
// (fleet.TransferFaults, satisfied structurally).
func (c *Cursor) FailTransfer(src, dst int) bool { return c.FailFetch() }

// draw returns the next uniform [0, 1) variate of the failure stream
// (splitmix64 — tiny, seedable, and stable across platforms).
func (c *Cursor) draw() float64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
