package main

import (
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"jenga/internal/bench"
	"jenga/internal/cluster"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/metrics"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/trace"
)

// A scorecard is a named table of measurements: one base scenario and
// the variants of it whose rows the table compares. To add a row, add a
// variant; to add a scorecard, add an entry to scorecards() (and, for
// BENCH_serving.json, a slot to servingFile). The values here are the
// benchmark: there are no flags to override them, because every
// committed number was produced by exactly these and `go run` makes
// editing a row as cheap as passing a flag.
type scorecard struct {
	name, about string
	base        bench.Scenario
	groups      []group
	// show lists the columns (by JSON name) the printed table has; the
	// file always gets every column.
	show []string
	// measure produces one row (nil: clusterRow, a bench.Run).
	measure func(bench.Scenario, label) (row, error)
	// finish, when set, completes the section once every row is in:
	// header fields the scenario does not carry, ratios across rows.
	finish func(*section)
	// wallClock marks a scorecard whose numbers are minutes of host
	// time: not part of "all", not a golden.
	wallClock bool
	// host, when set, replaces all of the above: the core scorecard
	// times allocator and engine fixtures on the host, not a Scenario,
	// and keeps its own file.
	host func(w io.Writer, dir string) error
}

// group is a run of variants filed under one key of the section.
type group struct {
	key      string
	variants []variant
}

// variant is one row: its label and what it changes in the base.
type variant struct {
	label
	with func(*bench.Scenario)
}

const gib = 1 << 30

// Fan-out shape of the fanout scorecard: 8 branches fork after 770
// shared output tokens and decode to 834 each.
const fanForkAfter, fanOutputLen, fanBranch = 770, 834, 8

func scorecards() []scorecard {
	gemma, err := model.ByName("gemma2-2b")
	if err != nil {
		panic(err) // the zoo lost the model every committed scorecard serves
	}
	h100 := gpu.H100()
	mode := func(name string, with func(*bench.Scenario)) variant {
		return variant{label{Mode: name}, with}
	}

	routers := bench.Scenario{
		Spec: gemma, Device: h100, Replicas: 4,
		Requests: 480, Groups: 15, PrefixLen: 1024, SuffixLen: 128, Rate: 200, Seed: 42,
		Horizon: bench.Offline,
	}
	var routerRows []variant
	for _, p := range []cluster.RouterPolicy{cluster.RoundRobin, cluster.LeastLoaded, cluster.PrefixAffinity} {
		routerRows = append(routerRows, mode(p.String(), func(s *bench.Scenario) { s.Router = p }))
	}

	// The same fleet under memory pressure — 0.25 GiB of KV per replica
	// over a 2 GiB host tier — is the base of every scorecard below.
	fleet := routers
	fleet.CapacityBytes, fleet.HostTierBytes, fleet.Preempt = gib/4, 2*gib, engine.PreemptSwap
	fleet.Horizon = bench.Online

	// 600 req/s is well past what the fleet serves, so admission sheds
	// and the scheduler decides who waits.
	stream := fleet
	stream.Router, stream.Rate = cluster.PrefixAffinity, 600
	stream.SLOTTFT, stream.Deadline, stream.PrioClasses = 250*time.Millisecond, 2*time.Second, 2
	stream.Admission = engine.AdmissionChain(engine.KVAdmission{}, engine.SLOAdmission{TTFT: stream.SLOTTFT})
	var policies []variant
	for _, sc := range []sched.Scheduler{sched.NewFCFS(), sched.NewPriority(), sched.NewSJF(), sched.NewFairShare(nil)} {
		policies = append(policies,
			// Recompute rows run untiered: the baseline the trajectory
			// has compared swap against since before the host tier.
			variant{label{Scheduler: sc.Name(), Preempt: "recompute"}, func(s *bench.Scenario) {
				s.Scheduler, s.Preempt, s.HostTierBytes = sc, engine.PreemptRecompute, 0
			}},
			variant{label{Scheduler: sc.Name(), Preempt: "swap"}, func(s *bench.Scenario) { s.Scheduler = sc }})
	}

	// Round-robin over a churning workload is the placement that keeps
	// sending a prefix to replicas some other replica computed it on.
	churn := fleet
	churn.Router, churn.Churn, churn.Phases, churn.Rate = cluster.RoundRobin, true, 4, 70
	churn.SLOTTFT, churn.Deadline = 250*time.Millisecond, 2*time.Second
	fleetCard := churn
	fleetCard.Fleet = cluster.FleetPolicy{DrainAfter: 3 * time.Second, DrainReplicas: 1}

	// The recovery story needs the store and migration on in both rows;
	// only Recover differs.
	chaos := churn
	chaos.SLOTTFT, chaos.Deadline = 500*time.Millisecond, 6*time.Second
	chaos.Fleet = cluster.FleetPolicy{Store: true, Migrate: true}
	chaos.Faults = &bench.Faults{Replica: 3, FetchFailRate: 0.2}

	fanout := bench.Scenario{
		Spec: gemma, Device: h100, CapacityBytes: 2 * gib,
		Requests: 16, PrefixLen: 256, Rate: 3, Seed: 42,
	}

	// One million streamed requests on a 16-replica fleet. Prefix
	// affinity is load-oblivious, so the simulated outcome is identical
	// at every shard count and the sweep measures only the harness.
	scale := bench.Scenario{
		Spec: bench.ScaleSpec(), Device: h100, Replicas: 16, CapacityBytes: 64 << 20,
		Router:   cluster.PrefixAffinity,
		Requests: 1_000_000, Groups: 64, PrefixLen: 1024, SuffixLen: 48, Rate: 4000,
		Seed: 42, Streamed: true, Horizon: bench.Stream, Shards: 1,
	}
	// The baseline pair runs at a size the serial path finishes: every
	// arrival there advances all 16 replicas and the whole stream is
	// materialized.
	baseline := func(h bench.Horizon) func(*bench.Scenario) {
		return func(s *bench.Scenario) { s.Requests, s.Horizon = 100_032, h }
	}
	var sweep []variant
	for _, n := range []int{1, 2, 4, 8} {
		sweep = append(sweep, variant{with: func(s *bench.Scenario) { s.Shards = n }})
	}

	latency := []string{"req_per_s", "goodput_per_s", "slo_attainment", "p50_ttft_ms", "p99_ttft_ms"}
	return []scorecard{{
		name:  "routers",
		about: "routing policies on a shared-prefix stream served offline (Serve)",
		base:  routers, groups: []group{{"rows", routerRows}},
		show: []string{"mode", "req_per_s", "p50_ttft_ms", "p99_ttft_ms", "p99_e2e_ms", "hit_rate", "imbalance", "mean_kv_util", "failed"},
	}, {
		name:  "stream",
		about: "scheduler x preemption under a memory-pressured overload with kv+slo admission (ServeOnline)",
		base:  stream, groups: []group{{"policies", policies}},
		show: append([]string{"scheduler", "preempt"}, append(latency,
			"shed_rate", "p99_e2e_ms", "hit_rate", "tier_hit_rate", "recomputed_tokens", "failed")...),
	}, {
		name:  "fanout",
		about: "copy-on-write forked branches vs naive independent branches on one engine",
		base:  fanout, groups: []group{{"modes", []variant{mode("fork", nil), mode("naive", nil)}}},
		show:    []string{"mode", "peak_kv_bytes", "kv_bytes_per_branch", "forks", "cow_copy_bytes", "req_per_s", "p50_ttft_ms", "p99_ttft_ms", "finished", "failed"},
		measure: fanoutRow,
		finish: func(sec *section) {
			sec.Workload = "fanout"
			sec.Roots, sec.PromptLen, sec.Requests, sec.PrefixLen = sec.Requests, sec.PrefixLen, 0, 0
			sec.ForkAfter, sec.OutputLen, sec.Branch = fanForkAfter, fanOutputLen, fanBranch
			if fork, naive := sec.Modes[0], sec.Modes[1]; fork.KVBytesPerBranch > 0 {
				sec.SavingsX = naive.KVBytesPerBranch / fork.KVBytesPerBranch
			}
		},
	}, {
		name:  "fleet",
		about: "fleet-wide KV store vs local recompute under replica churn; a mid-stream scale-down served by shedding vs migration",
		base:  fleetCard,
		groups: []group{{"churn", []variant{
			mode("local-recompute", func(s *bench.Scenario) { s.Fleet = cluster.FleetPolicy{} }),
			mode("fleet-store", func(s *bench.Scenario) { s.Fleet = cluster.FleetPolicy{Store: true} }),
		}}, {"drain", []variant{
			mode("shed", nil),
			mode("migrate-recompute", func(s *bench.Scenario) { s.Fleet.Migrate = true }),
			mode("migrate-transfer", func(s *bench.Scenario) { s.Fleet.Migrate, s.Fleet.Store = true, true }),
		}}},
		show: append([]string{"mode"}, append(latency,
			"hit_rate", "peer_hit_rate", "computed_prompt_tokens", "recomputed_tokens", "migrations", "shed", "failed")...),
	}, {
		name:  "chaos",
		about: "one replica crash and restart mid-burst plus peer-transfer faults, recovery off vs on",
		base:  chaos,
		groups: []group{{"rows", []variant{
			mode("off", nil),
			mode("on", func(s *bench.Scenario) { s.Recover = true }),
		}}},
		show: append([]string{"mode"}, append(latency,
			"lost_requests", "shed", "failed", "redispatched", "fetch_retries", "fetch_failures")...),
	}, {
		name:  "scale",
		about: "a million streamed requests on 16 replicas: ServeOnline vs ServeStream, then a shard sweep (minutes of wall time)",
		base:  scale,
		groups: []group{
			{"serial_baseline", []variant{{with: baseline(bench.Online)}}},
			{"stream_baseline", []variant{{with: baseline(bench.Stream)}}},
			{"shard_sweep", sweep},
		},
		show:    []string{"requests", "shards", "wall_ms", "req_per_wall_s", "peak_heap_mb", "req_per_s", "hit_rate", "finished"},
		measure: scaleRow,
		finish: func(sec *section) {
			sec.SnapshotEveryMs = 10 // cluster.StreamConfig's default epoch
			sec.NumCPU, sec.Gomaxprocs = runtime.NumCPU(), runtime.GOMAXPROCS(0)
			if sec.NumCPU <= 1 {
				sec.Note = "single-core host: shard scaling is concurrency without parallelism; the stream-vs-serial row is the algorithmic win"
			}
			sec.StreamVsSerial = metrics.Speedup(sec.Stream.ReqPerWallSec, sec.Serial.ReqPerWallSec)
			sweep := sec.ShardSweep
			sec.SpeedupAt8Vs1 = metrics.Speedup(sweep[len(sweep)-1].ReqPerWallSec, sweep[0].ReqPerWallSec)
		},
		wallClock: true,
	}, {
		name:  "core",
		about: "allocator/engine hot-path micro-benchmarks (ns/op, allocs/op) and the sim anchor, into BENCH_core.json",
		host:  runCore,
	}}
}

// clusterRow is the default measurement: one bench.Run.
func clusterRow(s bench.Scenario, _ label) (row, error) {
	res, err := bench.Run(s)
	if err != nil {
		return row{}, err
	}
	return rowOf(res, s.RequestCount()), nil
}

// scaleRow adds what the run cost the host.
func scaleRow(s bench.Scenario, _ label) (row, error) {
	m, err := bench.Measure(s)
	if err != nil {
		return row{}, err
	}
	r := rowOf(m.Result, s.RequestCount())
	r.Requests, r.Shards = s.RequestCount(), s.Shards
	r.WallMs = ms(m.Wall)
	r.ReqPerWallSec = float64(r.Requests) / m.Wall.Seconds()
	r.PeakHeapMB = float64(m.PeakHeapBytes) / (1 << 20)
	return r, nil
}

// fanoutRow merges two engine-level runs of one mode: memory columns
// from a single root with every branch live at once, traffic columns
// from the scenario's Poisson roots.
func fanoutRow(s bench.Scenario, l label) (row, error) {
	traffic := bench.FanoutOptions{
		Scenario: s, ForkAfter: fanForkAfter, OutputLen: fanOutputLen, Branch: fanBranch,
		Naive: l.Mode == "naive",
	}
	mem := traffic
	mem.Requests, mem.Rate = 1, 0
	m, err := bench.RunFanout(mem)
	if err != nil {
		return row{}, err
	}
	t, err := bench.RunFanout(traffic)
	if err != nil {
		return row{}, err
	}
	return row{
		PeakKVBytes: m.PeakKVBytes, KVBytesPerBranch: m.KVBytesPerBranch,
		Forks: m.Forks, CowCopies: m.CowCopies, CowCopyBytes: m.CowCopyBytes,
		ReqPerSec: t.ReqPerSec, P50TTFTMs: ms(t.P50TTFT), P99TTFTMs: ms(t.P99TTFT),
		Finished: t.Finished, Failed: m.Failed + t.Failed,
	}, nil
}

// run executes every variant of the scorecard, prints one table per
// group to w, and returns the section the file stores.
func (sc scorecard) run(w io.Writer) (*section, error) {
	h, err := headerOf(sc.base)
	if err != nil {
		return nil, err
	}
	sec := &section{header: h}
	measure := sc.measure
	if measure == nil {
		measure = clusterRow
	}
	fmt.Fprintf(w, "%s: %s\n", sc.name, sc.about)
	for _, g := range sc.groups {
		t := trace.NewTable(sc.name+" "+g.key, sc.show...)
		for _, v := range g.variants {
			s := sc.base
			if v.with != nil {
				v.with(&s)
			}
			r, err := measure(s, v.label)
			if err != nil {
				return nil, fmt.Errorf("scorecard %s %s %+v: %w", sc.name, g.key, v.label, err)
			}
			r.label = v.label
			sec.add(g.key, r)
			cells := make([]any, len(sc.show))
			for i, col := range sc.show {
				cells[i] = field(reflect.ValueOf(r), col).Interface()
			}
			t.AddRow(cells...)
		}
		if err := t.Render(w); err != nil {
			return nil, err
		}
	}
	if sc.finish != nil {
		sc.finish(sec)
	}
	return sec, nil
}

// exec runs the scorecard and, with a directory, stores its section in
// the directory's BENCH_serving.json.
func (sc scorecard) exec(w io.Writer, dir string) error {
	if sc.host != nil {
		return sc.host(w, dir)
	}
	sec, err := sc.run(w)
	if err != nil || dir == "" {
		return err
	}
	path := filepath.Join(dir, "BENCH_serving.json")
	if err := updateJSON(path, func(f *servingFile) error { return f.set(sc.name, sec) }); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "wrote %s (%s section)\n", path, sc.name)
	return err
}
