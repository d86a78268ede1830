package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/serve"
	"jenga/internal/workload"
)

// TestScenarioHostileConfigs feeds out-of-range and nonsensical configs
// to every constructor a caller reaches. Each row ends in an error (the
// rows that name one must return it) or in a run that accounts for every
// request it was given — never in a panic, a hang or a silent remap.
func TestScenarioHostileConfigs(t *testing.T) {
	spec, err := model.ByName("gemma2-2b")
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{
		Spec: spec, Device: gpu.L4(), Replicas: 2, CapacityBytes: 1 << 28,
		Requests: 12, Groups: 3, PrefixLen: 128, SuffixLen: 32, Rate: 200, Seed: 5,
	}
	scenario := func(vary func(*Scenario)) func() (int, int, error) {
		return func() (int, int, error) {
			s := base
			vary(&s)
			res, err := Run(s)
			if err != nil {
				return 0, 0, err
			}
			return res.Finished + res.Failed + res.Shed + res.Cancelled + res.LostRequests, s.RequestCount(), nil
		}
	}
	reqs := func() []workload.Request {
		gen := workload.NewGen(5)
		return gen.PrefixGroups(3, 4, 128, 32)
	}
	engineConfig := func() engine.Config {
		mgr, err := core.New(core.Config{Spec: spec, CapacityBytes: 1 << 28, EnablePrefixCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return engine.Config{Spec: spec, Manager: mgr}
	}
	rows := []struct {
		name    string
		wantErr string // empty: the run must account for every request
		run     func() (accounted, submitted int, err error)
	}{
		{"replicas 0", "at least 1 replica", scenario(func(s *Scenario) { s.Replicas = 0 })},
		{"capacity 1 byte", "CapacityBytes", scenario(func(s *Scenario) { s.CapacityBytes = 1 })},
		{"capacity -1", "CapacityBytes", scenario(func(s *Scenario) { s.CapacityBytes = -1 })},
		{"host tier -1", "HostTierBytes", scenario(func(s *Scenario) { s.HostTierBytes = -1 })},
		{"rate -5", "", scenario(func(s *Scenario) { s.Rate = -5 })},
		{"groups -3, requests -1", "", scenario(func(s *Scenario) { s.Groups, s.Requests = -3, -1 })},
		{"empty prompts", "", scenario(func(s *Scenario) { s.PrefixLen, s.SuffixLen = 0, 0 })},
		{"stream at -4 shards", "", scenario(func(s *Scenario) { s.Horizon, s.Shards = Stream, -4 })},
		{"router 99", "router", scenario(func(s *Scenario) { s.Router = cluster.RouterPolicy(99) })},
		{"preempt mode 7", "preempt mode", scenario(func(s *Scenario) { s.Preempt = engine.PreemptMode(7) })},
		{"fetch fail rate 2", "", scenario(func(s *Scenario) {
			s.HostTierBytes, s.Fleet.Store = 1<<28, true
			s.Faults, s.Recover = &Faults{Replica: 1, FetchFailRate: 2}, true
		})},
		{"drain 5 of 2 replicas", "", scenario(func(s *Scenario) {
			s.Fleet = cluster.FleetPolicy{Migrate: true, DrainAfter: time.Millisecond, DrainReplicas: 5}
		})},
		{"zero device", "", scenario(func(s *Scenario) { s.Device = gpu.Device{} })},
		{"crash and restart at negative instants", "", scenario(func(s *Scenario) {
			s.Faults, s.Recover = &Faults{Replica: 0, CrashAt: -time.Second, RestartAt: -time.Millisecond}, true
		})},
		{"engine MaxSteps -1", "", func() (int, int, error) {
			cfg := engineConfig()
			cfg.MaxSteps = -1
			e, err := engine.New(cfg)
			if err != nil {
				return 0, 0, err
			}
			rs := reqs()
			res, err := e.Run(rs)
			if err != nil {
				return 0, 0, err
			}
			return res.Finished + res.Failed + res.Shed + res.Cancelled, len(rs), nil
		}},
		{"serve MaxQueue -1", "", func() (int, int, error) {
			srv, err := serve.New(serve.Config{Engine: engineConfig(), MaxQueue: -1})
			if err != nil {
				return 0, 0, err
			}
			rs := reqs()
			for _, r := range rs {
				if _, err := srv.Submit(context.Background(), r); err != nil {
					return 0, 0, err
				}
			}
			if err := srv.Drain(); err != nil {
				return 0, 0, err
			}
			rep := srv.Report()
			return rep.Finished + rep.Failed + rep.Shed + rep.Cancelled, len(rs), nil
		}},
		{"cluster without a spec", "spec is required", func() (int, int, error) {
			_, err := cluster.New(cluster.Config{Replicas: 1})
			return 0, 0, err
		}},
		{"cluster spec without params", "param", func() (int, int, error) {
			_, err := cluster.New(cluster.Config{Spec: &model.Spec{Name: "empty"}, Replicas: 1, CapacityBytes: 1 << 28})
			return 0, 0, err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			accounted, submitted, err := row.run()
			switch {
			case row.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), row.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, row.wantErr)
				}
			case err != nil:
				t.Fatalf("error %v, want a run that accounts for every request", err)
			case accounted != submitted:
				t.Fatalf("%d of %d requests reached a terminal outcome", accounted, submitted)
			}
		})
	}
}
