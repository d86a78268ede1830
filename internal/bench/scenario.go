package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jenga/internal/chaos"
	"jenga/internal/cluster"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// Horizon selects which of the cluster's three serve entry points — the
// three horizon policies of its one serve loop — a Scenario drives.
type Horizon int

const (
	// Online is ServeOnline: the router reads live replica state at
	// every arrival.
	Online Horizon = iota
	// Offline is Serve: no horizon, routers see estimate-drained loads.
	Offline
	// Stream is ServeStream at Scenario.Shards event loops: no horizon
	// for a load-oblivious router (affinity, round robin), a horizon
	// every snapshot epoch for least-loaded, or every arrival under a
	// fleet or chaos config.
	Stream
)

// Faults is a Scenario's fault plan: one replica crashes and restarts
// mid-burst while peer transfers fail at a seeded rate.
type Faults struct {
	// Replica is the replica the plan kills, in [0, Replicas).
	Replica int
	// CrashAt and RestartAt are the crash and restart instants. Zero
	// derives each from the workload's arrival span — crash 40% through
	// the burst, restart 75% — so the plan stays mid-burst at any
	// request count or rate.
	CrashAt, RestartAt time.Duration
	// FetchFailRate is the per-attempt peer-transfer failure
	// probability drawn from the plan's seeded stream.
	FetchFailRate float64
}

// Scenario is one complete, reproducible cluster run: the fleet, the
// seeded workload, an optional fault plan and the horizon policy. Every
// scorecard row, smoke test and matrix cell is a Scenario value handed
// to Run; a variant is a copy with a field changed. Each run builds a
// fresh cluster — cold caches, empty directory — so variants compare
// policies, not warm-up.
type Scenario struct {
	// Spec and Device describe the replicas (required Spec; zero
	// Device means H100); Replicas is the fleet size.
	Spec     *model.Spec
	Device   gpu.Device
	Replicas int
	// CapacityBytes overrides each replica's KV budget (0 = the full
	// device budget): small values make the run memory-pressured.
	// HostTierBytes gives every replica a host-memory KV tier — what
	// swap preemption spills into and the fleet store serves from.
	CapacityBytes int64
	HostTierBytes int64
	// Router places arrivals; Admission, Scheduler and Preempt forward
	// to every replica engine (nil: admit all, FCFS).
	Router    cluster.RouterPolicy
	Admission engine.AdmissionPolicy
	Scheduler sched.Scheduler
	Preempt   engine.PreemptMode
	// SLOTTFT is the fleet TTFT target SLO attainment is measured
	// against.
	SLOTTFT time.Duration
	// Fleet is the fleet-memory policy: store, migration, drain.
	Fleet cluster.FleetPolicy

	// Churn selects the replica-churn workload (group popularity
	// phase-shifts Phases times across the stream) over the default
	// interleaved prefix groups. Either way Groups shared prefixes of
	// PrefixLen tokens each serve Requests/Groups requests (Requests
	// rounds down to whole groups, at least one request each) that
	// append a unique SuffixLen-token suffix.
	Churn     bool
	Requests  int
	Groups    int
	PrefixLen int
	SuffixLen int
	Phases    int
	// Rate is the Poisson arrival rate in req/s (0 = all at once).
	Rate float64
	// PrioClasses assigns request i priority i mod PrioClasses (≤ 1
	// leaves every priority 0); Deadline is the per-request E2E budget
	// goodput is counted against (0 = none).
	PrioClasses int
	Deadline    time.Duration
	// Seed drives the workload generator and the fault plan.
	Seed int64
	// Streamed generates the workload as a never-materialized source,
	// one generator per pipeline stage (Seed for content, Seed+1 for
	// arrivals), where the default materializes a slice from a single
	// generator. The two draw different arrival sequences, so it is
	// part of the workload's identity, not of how it is served.
	Streamed bool

	// Faults is the fault plan (nil: none); Recover turns on the
	// recovery machinery (cluster.ChaosPolicy) that answers it.
	Faults  *Faults
	Recover bool

	// Horizon picks the serve entry point; Shards is the Stream
	// horizon's event-loop count.
	Horizon Horizon
	Shards  int

	// EventSink, when set, receives every replica engine's events
	// (tests count terminal events through it).
	EventSink func(replica int, ev engine.Event)
}

// groups resolves the workload's group count and the number of requests
// each group serves.
func (s Scenario) groups() (groups, perGroup int) {
	groups = max(1, s.Groups)
	return groups, max(1, s.Requests/groups)
}

// RequestCount is the number of requests the workload holds, without
// generating them.
func (s Scenario) RequestCount() int {
	groups, perGroup := s.groups()
	return groups * perGroup
}

// Source builds the scenario's seeded request stream: O(1) in memory
// when the scenario is Streamed, a slice behind an iterator otherwise.
func (s Scenario) Source() workload.Source {
	groups, perGroup := s.groups()
	gen := workload.NewGen(s.Seed)
	if !s.Streamed {
		var reqs []workload.Request
		if s.Churn {
			reqs = gen.ChurnGroups(groups, perGroup, s.PrefixLen, s.SuffixLen, s.Phases)
		} else {
			reqs = gen.PrefixGroups(groups, perGroup, s.PrefixLen, s.SuffixLen)
		}
		if s.Rate > 0 {
			gen.PoissonArrivals(reqs, s.Rate)
		}
		for i := range reqs {
			s.shape(i, &reqs[i])
		}
		return workload.SliceSource(reqs)
	}
	var src workload.Source
	if s.Churn {
		src = gen.ChurnGroupsSource(groups, perGroup, s.PrefixLen, s.SuffixLen, s.Phases)
	} else {
		src = gen.PrefixGroupsSource(groups, perGroup, s.PrefixLen, s.SuffixLen)
	}
	if s.Rate > 0 {
		src = workload.PoissonSource(src, workload.NewGen(s.Seed+1), s.Rate)
	}
	if s.PrioClasses <= 1 && s.Deadline == 0 {
		return src
	}
	i := 0
	return workload.Apply(src, func(r *workload.Request) {
		s.shape(i, r)
		i++
	})
}

// Workload materializes Source, for the horizons that take a slice.
func (s Scenario) Workload() []workload.Request { return workload.Collect(s.Source()) }

// shape assigns request i its priority class and deadline.
func (s Scenario) shape(i int, r *workload.Request) {
	if s.PrioClasses > 1 {
		r.Priority = i % s.PrioClasses
	}
	r.Deadline = s.Deadline
}

// Plan materializes the fault schedule (nil without Faults). It does
// not depend on Recover, so a recovery-off and a recovery-on variant
// face identical faults. A replica outside the fleet is an error: there
// is no "last replica" spelling to misread.
func (s Scenario) Plan() (*chaos.Plan, error) {
	f := s.Faults
	if f == nil {
		return nil, nil
	}
	if f.Replica < 0 || f.Replica >= s.Replicas {
		return nil, fmt.Errorf("bench: fault plan crashes replica %d of a %d-replica fleet", f.Replica, s.Replicas)
	}
	crashAt, restartAt := f.CrashAt, f.RestartAt
	if crashAt == 0 || restartAt == 0 {
		first, last := workload.Span(s.Workload())
		if crashAt == 0 {
			crashAt = first + (last-first)*2/5
		}
		if restartAt == 0 {
			restartAt = first + (last-first)*3/4
		}
	}
	p := chaos.NewPlan(s.Seed).Crash(f.Replica, crashAt).Restart(f.Replica, restartAt)
	p.FetchFailRate = f.FetchFailRate
	return p, nil
}

// Run builds the scenario's cluster and serves its workload through the
// chosen horizon.
func Run(s Scenario) (*cluster.Result, error) {
	plan, err := s.Plan()
	if err != nil {
		return nil, err
	}
	c, err := cluster.New(cluster.Config{
		Spec:          s.Spec,
		Device:        s.Device,
		Replicas:      s.Replicas,
		CapacityBytes: s.CapacityBytes,
		HostTierBytes: s.HostTierBytes,
		Policy:        s.Router,
		Admission:     s.Admission,
		Scheduler:     s.Scheduler,
		PreemptMode:   s.Preempt,
		SLOTTFT:       s.SLOTTFT,
		Fleet:         s.Fleet,
		Chaos:         cluster.ChaosPolicy{Plan: plan, Recover: s.Recover},
		EventSink:     s.EventSink,
	})
	if err != nil {
		return nil, err
	}
	switch s.Horizon {
	case Online:
		return c.ServeOnline(s.Workload())
	case Offline:
		return c.Serve(s.Workload())
	default:
		return c.ServeStream(s.Source(), cluster.StreamConfig{Shards: s.Shards})
	}
}

// ScaleSpec is the model the scale scenarios serve: one small
// full-attention group, cheap enough per step that a million-request
// run measures the serving harness rather than the model.
func ScaleSpec() *model.Spec { return textSpec("bench-scale") }

// Measured is a Run plus what it cost the host — the wall-clock half
// of the scale scorecard.
type Measured struct {
	*cluster.Result
	// Wall is the host time of the whole Run, materializing the
	// workload included when the scenario is not Streamed.
	Wall time.Duration
	// PeakHeapBytes is the maximum live heap sampled during the run —
	// the bounded-memory evidence for streamed workloads.
	PeakHeapBytes int64
}

// Measure is Run under a wall clock and a live-heap sampler.
func Measure(s Scenario) (Measured, error) {
	w := watchHeap()
	start := time.Now()
	res, err := Run(s)
	wall := time.Since(start)
	peak := w.done()
	return Measured{Result: res, Wall: wall, PeakHeapBytes: peak}, err
}

// heapWatcher samples the live heap until stopped.
type heapWatcher struct {
	peak atomic.Int64
	stop chan struct{}
	wg   sync.WaitGroup
}

func watchHeap() *heapWatcher {
	// Collect the previous run's garbage first so the peak measures
	// this run, not its predecessor's leftovers.
	runtime.GC()
	w := &heapWatcher{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		var ms runtime.MemStats
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if h := int64(ms.HeapAlloc); h > w.peak.Load() {
				w.peak.Store(h)
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *heapWatcher) done() int64 {
	close(w.stop)
	w.wg.Wait()
	return w.peak.Load()
}
