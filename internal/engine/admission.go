package engine

import (
	"fmt"
	"strings"
	"time"

	"jenga/internal/workload"
)

// Built-in admission policies: the reject/queue/shed decisions an
// online server makes at each request's arrival instant, against live
// memory usage and queue state. They compose with AdmissionChain;
// ParseAdmission converts flag spellings ("kv", "slo", "kv+slo").

// admitAll admits everything (the explicit form of a nil policy).
type admitAll struct{}

func (admitAll) Name() string { return "none" }
func (admitAll) Decide(*workload.Request, AdmissionState) AdmissionDecision {
	return Admit
}

// AdmitAll returns the policy that queues every arrival.
func AdmitAll() AdmissionPolicy { return admitAll{} }

// KVAdmission sheds by estimated KV demand versus live usage: a
// request whose steady-state footprint exceeds total capacity can
// never run and is shed immediately (instead of failing later on an
// idle engine), and when the footprint exceeds what is free plus
// evictable *and* the queue is already deep, the request is shed
// rather than queued into memory thrash.
type KVAdmission struct {
	// MaxQueue is the waiting-queue depth beyond which a
	// memory-blocked request is shed instead of queued (default 64).
	MaxQueue int
}

// Name implements AdmissionPolicy.
func (p KVAdmission) Name() string { return "kv" }

// Decide implements AdmissionPolicy.
func (p KVAdmission) Decide(req *workload.Request, s AdmissionState) AdmissionDecision {
	maxQueue := p.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 64
	}
	if s.Footprint > s.Capacity {
		return Shed
	}
	if s.Footprint > s.Usage.Free+s.Usage.Cached && s.Queued >= maxQueue {
		return Shed
	}
	return Admit
}

// SLOAdmission sheds requests whose first-order queueing estimate
// already busts the latency target: admitting them would waste compute
// on work that misses its SLO and steal it from work that could meet
// its own.
type SLOAdmission struct {
	// TTFT is the time-to-first-token target compared against the
	// queueing estimate (0 disables the global target).
	TTFT time.Duration
}

// Name implements AdmissionPolicy.
func (p SLOAdmission) Name() string { return "slo" }

// Decide implements AdmissionPolicy. A request's own Deadline (when
// set) is enforced alongside the global TTFT target: a request that
// cannot even start before its end-to-end budget expires is shed.
func (p SLOAdmission) Decide(req *workload.Request, s AdmissionState) AdmissionDecision {
	if p.TTFT > 0 && s.EstTTFT > p.TTFT {
		return Shed
	}
	if req.Deadline > 0 && s.EstTTFT > req.Deadline {
		return Shed
	}
	return Admit
}

// chain sheds when any member sheds.
type chain struct {
	policies []AdmissionPolicy
}

func (c chain) Name() string {
	names := make([]string, len(c.policies))
	for i, p := range c.policies {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

func (c chain) Decide(req *workload.Request, s AdmissionState) AdmissionDecision {
	for _, p := range c.policies {
		if p.Decide(req, s) == Shed {
			return Shed
		}
	}
	return Admit
}

// AdmissionChain composes policies: a request is admitted only when
// every member admits it.
func AdmissionChain(policies ...AdmissionPolicy) AdmissionPolicy {
	return chain{policies: policies}
}

// ParseAdmission converts a flag spelling into a policy: "none", "kv",
// "slo", or a "+"-joined chain like "kv+slo". slo is the TTFT target
// the "slo" member enforces.
func ParseAdmission(s string, slo time.Duration) (AdmissionPolicy, error) {
	if s == "" || s == "none" {
		return nil, nil
	}
	var members []AdmissionPolicy
	for _, part := range strings.Split(s, "+") {
		switch strings.TrimSpace(part) {
		case "kv":
			members = append(members, KVAdmission{})
		case "slo":
			members = append(members, SLOAdmission{TTFT: slo})
		case "none", "":
			members = append(members, AdmitAll())
		default:
			return nil, fmt.Errorf("engine: unknown admission policy %q (want none, kv, slo or a + chain)", part)
		}
	}
	if len(members) == 1 {
		return members[0], nil
	}
	return AdmissionChain(members...), nil
}
