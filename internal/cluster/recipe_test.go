package cluster

import (
	"reflect"
	"testing"
	"time"

	"jenga/internal/workload"
)

// filled is a stream's requests with every own part as hand-built
// tokens: each recipe filled into its request's Prompt, which engines
// and readers borrow as they were given it.
func filled(src workload.Source) workload.Source {
	reqs := workload.Collect(src)
	for i := range reqs {
		r := &reqs[i]
		r.Prompt, _ = r.OwnTokens(r.OwnLen(), nil)
		r.Own = workload.Content{}
	}
	return workload.SliceSource(reqs)
}

// TestStreamRecipesMatchFilledPrompts: ServeStream over a generator
// source, whose requests carry their own parts as recipes that every
// reader fills where it needs them — the affinity router and the fleet
// fetch at dispatch into the cluster's scratch, each engine at arrival
// into its prompt pool, a migration or crash redispatch adopting the
// source engine's buffer — runs exactly as the same stream with every
// part filled up front as hand-built tokens. Across routers, shard
// counts, and a plain fleet versus the everything-on fleet (store,
// migration, scale-down, a crash and restart, with recovery and
// without), the Results are deeply equal.
func TestStreamRecipesMatchFilledPrompts(t *testing.T) {
	source := func() workload.Source {
		src := workload.NewGen(5).ChurnGroupsSource(12, 20, 512, 48, 4)
		src = workload.PoissonSource(src, workload.NewGen(6), 300)
		return workload.Apply(src, func(r *workload.Request) { r.Deadline = time.Second })
	}
	fleets := map[string]func(RouterPolicy) Config{
		"plain": func(p RouterPolicy) Config {
			return Config{Spec: testSpec(), Replicas: 4, Policy: p, CapacityBytes: perReplicaCapacity, SLOTTFT: 500 * time.Millisecond}
		},
		"fleet+chaos": func(p RouterPolicy) Config {
			cfg := fleetChaosConfig()
			cfg.Policy = p
			return cfg
		},
		"fleet+chaos/no-recovery": func(p RouterPolicy) Config {
			cfg := fleetChaosConfig()
			cfg.Policy, cfg.Chaos.Recover = p, false
			return cfg
		},
	}
	for _, policy := range []RouterPolicy{RoundRobin, LeastLoaded, PrefixAffinity} {
		for name, config := range fleets {
			for _, shards := range []int{1, 4} {
				serve := func(src workload.Source) *Result {
					c, err := New(config(policy))
					if err != nil {
						t.Fatal(err)
					}
					res, err := c.ServeStream(src, StreamConfig{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want := serve(filled(source()))
				got := serve(source())
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%s/%d shards: recipes changed the run:\nrecipes %+v\nfilled  %+v", policy, name, shards, got, want)
				}
			}
		}
	}
}

// TestStreamForksShareFilledPrompts: a fan-out root's branches read the
// prompt buffer the root's engine filled after the root itself has
// retired (and the root after they have), so the engine returns
// neither's to its pool — a jengadebug build poisons a returned buffer,
// and the branches' block hashes would change under it — while the
// plain requests streaming past in the same run return theirs as usual.
// The run equals the same stream served with every prompt filled up
// front.
func TestStreamForksShareFilledPrompts(t *testing.T) {
	const total, branch = 6 * 30, 3
	// Every fifth request forks.
	source := func() workload.Source {
		src := workload.PoissonSource(workload.NewGen(9).PrefixGroupsSource(6, 30, 256, 32), workload.NewGen(11), 800)
		return workload.Apply(src, func(r *workload.Request) {
			if r.ID%5 == 0 {
				r.Fanout, r.ForkAfter, r.OutputLen = branch, 4, 24
			}
		})
	}
	roots := 0
	for _, r := range workload.Collect(source()) {
		if r.Fanout > 1 {
			roots++
		}
	}
	serve := func(src workload.Source) *Result {
		c, err := New(Config{Spec: testSpec(), Replicas: 2, Policy: RoundRobin, CapacityBytes: perReplicaCapacity})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.ServeStream(src, StreamConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := serve(filled(source()))
	got := serve(source())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recipes changed the run:\nrecipes %+v\nfilled  %+v", got, want)
	}
	if roots == 0 || got.Finished != roots*branch+total-roots {
		t.Fatalf("finished %d, want %d roots x %d branches + %d plain requests", got.Finished, roots, branch, total-roots)
	}
}
