package cluster

import (
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/workload"
)

// lentPrompt is what the probe knows about a prompt array it issued.
type lentPrompt struct {
	id   int64
	sum  uint64
	root bool // a fan-out root: its branches share the array
}

// recycleProbe sits between a recycling source and the serve loop and
// follows every prompt array from the Next that issues it to the
// Recycle that hands it back.
type recycleProbe struct {
	t     *testing.T
	inner workload.Source
	lent  map[*core.Token]lentPrompt
	seen  map[*core.Token]bool
	// issued and reissued count Next calls and those served from an
	// array seen before; recycled counts hand-backs.
	issued, reissued, recycled int
}

func newRecycleProbe(t *testing.T, inner workload.Source) *recycleProbe {
	return &recycleProbe{t: t, inner: inner, lent: map[*core.Token]lentPrompt{}, seen: map[*core.Token]bool{}}
}

func promptSum(p []core.Token) uint64 {
	h := fnv.New64a()
	for _, t := range p {
		h.Write([]byte{byte(t.ID), byte(t.ID >> 8), byte(t.ID >> 16), byte(t.ID >> 24)})
	}
	return h.Sum64()
}

func (p *recycleProbe) Next() (*workload.Request, bool) {
	r, ok := p.inner.Next()
	if !ok {
		return nil, false
	}
	base := &r.Prompt[0]
	if old, dup := p.lent[base]; dup {
		p.t.Errorf("request %d was issued the prompt array request %d still holds", r.ID, old.id)
	}
	p.issued++
	if p.seen[base] {
		p.reissued++
	}
	p.seen[base] = true
	p.lent[base] = lentPrompt{id: r.ID, sum: promptSum(r.Prompt), root: r.Fanout > 1}
	return r, true
}

func (p *recycleProbe) Recycle(prompt []core.Token) {
	base := &prompt[0]
	l, ok := p.lent[base]
	switch {
	case !ok:
		p.t.Errorf("a prompt array was handed back that is not lent (twice, or never issued)")
	case l.root:
		p.t.Errorf("fan-out root %d's prompt, shared with its branches, was handed back", l.id)
	case promptSum(prompt) != l.sum:
		p.t.Errorf("request %d's prompt changed between Next and its retirement", l.id)
	}
	delete(p.lent, base)
	p.recycled++
	if rec, ok := p.inner.(workload.Recycler); ok {
		rec.Recycle(prompt)
	}
}

// TestStreamRecyclesPrompts: ServeStream over a generator source hands
// every retired request's prompt array back to the generator, which
// writes later requests over it — and nothing about the run changes.
// Against the same stream collected into a SliceSource (whose prompts
// are never handed back), across routers, shard counts, and a plain
// fleet versus the everything-on fleet (store, migration, scale-down,
// a crash and restart, with recovery and without): the Results are
// deeply equal; no array is issued again while a request still holds
// it; every array comes back with the content it was issued with; and
// arrays really are reused.
func TestStreamRecyclesPrompts(t *testing.T) {
	source := func() workload.Source {
		src := workload.NewGen(5).ChurnGroupsSource(12, 20, 512, 48, 4)
		src = workload.PoissonSource(src, workload.NewGen(6), 300)
		return workload.DeadlineSource(src, time.Second)
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
				want := serve(workload.SliceSource(workload.Collect(source())))
				probe := newRecycleProbe(t, source())
				got := serve(probe)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%s/%d shards: recycling prompts changed the run:\nrecycled %+v\nslice    %+v", policy, name, shards, got, want)
				}
				// What is still lent at the end retired after the last
				// barrier, or was lost in the crash.
				if probe.recycled == 0 || probe.reissued == 0 || probe.recycled+len(probe.lent) != probe.issued {
					t.Fatalf("%v/%s/%d shards: %d prompts issued (%d on a reused array), %d handed back, %d still lent",
						policy, name, shards, probe.issued, probe.reissued, probe.recycled, len(probe.lent))
				}
				if len(probe.lent) < got.LostRequests {
					t.Fatalf("%v/%s/%d shards: %d requests lost in the crash but only %d prompts never came back",
						policy, name, shards, got.LostRequests, len(probe.lent))
				}
			}
		}
	}
}

// TestStreamNeverRecyclesSharedPrompts: a fan-out root's branches read
// its prompt array after the root itself has retired (and the root after
// they have), so the engine hands back neither's; the plain requests
// streaming past in the same run are recycled as usual.
func TestStreamNeverRecyclesSharedPrompts(t *testing.T) {
	const roots, branch = 24, 3
	source := func() workload.Source {
		g := workload.NewGen(9) // one Gen: request IDs stay unique
		return workload.MergeSources(
			workload.PoissonSource(g.FanOutSource(roots, 256, 4, 24, branch), workload.NewGen(10), 100),
			workload.PoissonSource(g.PrefixGroupsSource(6, 30, 256, 32), workload.NewGen(11), 800),
		)
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
	want := serve(workload.SliceSource(workload.Collect(source())))
	probe := newRecycleProbe(t, source())
	got := serve(probe)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycling prompts changed the run:\nrecycled %+v\nslice    %+v", got, want)
	}
	if got.Finished != roots*branch+6*30 {
		t.Fatalf("finished %d, want %d roots x %d branches + 180 plain requests", got.Finished, roots, branch)
	}
	stillRoots := 0
	for _, l := range probe.lent {
		if l.root {
			stillRoots++
		}
	}
	if stillRoots != roots || probe.recycled == 0 || probe.reissued == 0 {
		t.Fatalf("%d of %d root prompts never handed back, %d plain prompts handed back, %d arrays reused",
			stillRoots, roots, probe.recycled, probe.reissued)
	}
}
