package bench

import (
	"testing"

	"jenga/internal/gpu"
	"jenga/internal/model"
)

// simAnchor is SimThroughput's simulated req/s, the number every
// committed claim rests on.
const simAnchor = 126.11533015205485

// TestOneReplicaIsTheEngine pins the sim anchor inside go test and the
// law that lets a figure stay one engine: SimThroughput's workload
// served by one Replica, and by a one-replica Scenario under each of
// the cluster's three serve entry points, gives the same throughput
// and duration. It also checks that CapacityBytes 0 is the device's
// KV budget under every manager.
func TestOneReplicaIsTheEngine(t *testing.T) {
	sim, err := SimThroughput()
	if err != nil {
		t.Fatal(err)
	}
	if sim.ReqPerSec != simAnchor {
		t.Fatalf("sim anchor: %v req/s, want %v", sim.ReqPerSec, simAnchor)
	}

	gemma, err := model.ByName("gemma2-2b")
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{
		Spec: gemma, Replicas: 1, CapacityBytes: 2 << 30,
		Requests: 96, Groups: 8, PrefixLen: 1024, SuffixLen: 128, Rate: 200, Seed: 42,
	}
	one, err := Replica{Spec: gemma, CapacityBytes: s.CapacityBytes, PrefixCache: true}.Serve(s.Workload())
	if err != nil {
		t.Fatal(err)
	}
	if one.ReqPerSec != sim.ReqPerSec || one.TokensPerSec != sim.TokensPerSec {
		t.Fatalf("Replica.Serve: %v req/s, %v tok/s; SimThroughput %v, %v",
			one.ReqPerSec, one.TokensPerSec, sim.ReqPerSec, sim.TokensPerSec)
	}
	for _, h := range []struct {
		name    string
		horizon Horizon
	}{{"Offline", Offline}, {"Online", Online}, {"Stream", Stream}} {
		s.Horizon = h.horizon
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if res.ReqPerSec != one.ReqPerSec || res.TokensPerSec != one.TokensPerSec || res.Duration != one.Duration {
			t.Errorf("%s: one-replica cluster %v req/s, %v tok/s, %v; Replica %v, %v, %v", h.name,
				res.ReqPerSec, res.TokensPerSec, res.Duration, one.ReqPerSec, one.TokensPerSec, one.Duration)
		}
	}

	pair := model.WithDraft(model.Gemma2_27B(), model.Gemma2_2B())
	for _, m := range []struct {
		name    string
		manager Manager
	}{{"Jenga", Jenga}, {"Paged", Paged}, {"VLLMMax", VLLMMax}, {"VLLMManual", VLLMManual}} {
		r := Replica{Spec: pair, Device: gpu.H100(), Manager: m.manager, Reserve: 0.2, Target: model.Gemma2_27B()}
		budget, err := gpu.KVBudget(r.Spec, r.Device, r.Reserve)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := r.NewManager()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		r.CapacityBytes = budget
		explicit, err := r.NewManager()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if derived.Capacity() != explicit.Capacity() {
			t.Errorf("%s: CapacityBytes 0 builds %d bytes, the KV budget %d builds %d",
				m.name, derived.Capacity(), budget, explicit.Capacity())
		}
	}
}
