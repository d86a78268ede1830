package cluster

import (
	"fmt"
	"testing"
	"time"

	"jenga/internal/workload"
)

// Golden regression for the streaming-core reimplementation: batch
// Cluster.Serve must reproduce the PR-1 seeded fleet metrics exactly
// (placement, per-replica engine runs, and aggregation are all
// deterministic).

func goldenFleetWorkload() []workload.Request {
	gen := workload.NewGen(7)
	reqs := gen.PrefixGroups(15, 12, 512, 48)
	gen.PoissonArrivals(reqs, 300)
	return reqs
}

func TestServeGoldenSeeded(t *testing.T) {
	want := map[RouterPolicy]struct {
		duration, p50TTFT, p99TTFT, p50E2E, p99E2E time.Duration
		finished, failed                           int
		hitRate, imbalance, meanKV                 string // %.9f
	}{
		// p99 values regenerated when percentileSorted moved from
		// round-half-up to the ceil-based nearest-rank rule (n=180:
		// rank 179, one above the old read-out); everything else —
		// durations, counts, hit rates — is bit-identical, proving the
		// fix changed only the percentile read-out, not the engines.
		//
		// Everything but counts and imbalance regenerated when admission
		// began charging a request only for the KV it adds (prefix pages
		// a running request holds are counted once): this fleet runs at
		// 98% KV use, the gate binds, and twelve requests per group share
		// a 512-token prefix, so more of them run side by side — round
		// robin drains in 0.957 s instead of 1.094 s, p50 TTFT 124 → 79
		// ms, hit rate 0.725 → 0.738 (sharers are admitted while the
		// prefix is still in use, before it can be evicted).
		RoundRobin: {
			duration: 956869614, finished: 180, failed: 0,
			p50TTFT: 79190008, p99TTFT: 198004600, p50E2E: 164672654, p99E2E: 319825071,
			hitRate: "0.737654864", imbalance: "1.004259133", meanKV: "0.984860181",
		},
		PrefixAffinity: {
			duration: 1758535789, finished: 180, failed: 0,
			p50TTFT: 130016231, p99TTFT: 1001262511, p50E2E: 220725508, p99E2E: 1090620269,
			hitRate: "0.438862019", imbalance: "1.602828951", meanKV: "0.892488538",
		},
	}
	for policy, w := range want {
		c := testCluster(t, 3, policy, perReplicaCapacity)
		res, err := c.Serve(goldenFleetWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if res.Duration != w.duration || res.Finished != w.finished || res.Failed != w.failed {
			t.Errorf("%s: duration/finished/failed = %d/%d/%d, want %d/%d/%d", policy,
				int64(res.Duration), res.Finished, res.Failed, int64(w.duration), w.finished, w.failed)
		}
		if res.P50TTFT != w.p50TTFT || res.P99TTFT != w.p99TTFT || res.P50E2E != w.p50E2E || res.P99E2E != w.p99E2E {
			t.Errorf("%s: percentiles = %d/%d/%d/%d, want %d/%d/%d/%d", policy,
				int64(res.P50TTFT), int64(res.P99TTFT), int64(res.P50E2E), int64(res.P99E2E),
				int64(w.p50TTFT), int64(w.p99TTFT), int64(w.p50E2E), int64(w.p99E2E))
		}
		for _, c := range []struct{ name, got, want string }{
			{"hitRate", fmt.Sprintf("%.9f", res.HitRate), w.hitRate},
			{"imbalance", fmt.Sprintf("%.9f", res.Imbalance), w.imbalance},
			{"meanKVUtil", fmt.Sprintf("%.9f", res.MeanKVUtil), w.meanKV},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s = %s, want %s", policy, c.name, c.got, c.want)
			}
		}
	}
}
