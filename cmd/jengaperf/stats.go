package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/engine"
	"jenga/internal/metrics"
)

// simStats is everything one pass reports about the *simulated*
// serving system. All of it is a pure function of (workload, seed), so
// two passes — or two commits — compare bit for bit. Only int and
// float64 fields: fingerprint hashes their bit patterns in order.
type simStats struct {
	Submitted, Finished, Failed, Shed, Lost, Cancelled int

	SimSeconds     float64
	TokensPerS     float64
	GoodputPerS    float64
	TTFTp50ms      float64
	TTFTp99ms      float64
	E2Ep99ms       float64
	SLOAttainment  float64 // TTFT within the limit / submitted
	HitRate        float64
	KVUtilMean     float64
	LatencySamples int // finished requests behind the percentiles

	// Engine-layer counts (summed over replicas).
	Steps                int
	Preemptions          int
	RecomputedTokens     int
	ComputedPromptTokens int
	GeneratedTokens      int
	EncoderRuns          int
	MeanDecodeBatch      float64

	// Cluster, fleet and chaos counts (0 on single-engine workloads).
	Imbalance     float64
	Migrations    int
	Redispatched  int
	PeerHits      int
	PeerHitRate   float64
	FetchRetries  int
	FetchFailures int
	Crashes       int
	Restarts      int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// unaccounted is the number of submitted requests without a terminal
// state: the conservation law says 0.
func (s *simStats) unaccounted() int {
	return s.Submitted - s.Finished - s.Failed - s.Shed - s.Lost - s.Cancelled
}

// fingerprint hashes the bit patterns of every field, in declaration
// order. A refactor that leaves behaviour unchanged leaves it unchanged.
func (s *simStats) fingerprint() string {
	h := fnv.New64a()
	v := reflect.ValueOf(*s)
	var buf [8]byte
	for i := 0; i < v.NumField(); i++ {
		var bits uint64
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			bits = uint64(f.Int())
		case reflect.Float64:
			bits = math.Float64bits(f.Float())
		default:
			panic("simStats: unhashable field " + v.Type().Field(i).Name)
		}
		for j := range buf {
			buf[j] = byte(bits >> (8 * j))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// clusterStats folds a cluster.Result. The cluster measures SLO
// attainment (against its Config.SLOTTFT) over finished requests; a
// shed, failed or lost request misses the limit too, so it is rescaled
// to requests submitted.
func clusterStats(res *cluster.Result, submitted int) *simStats {
	s := &simStats{
		Submitted: submitted, Finished: res.Finished, Failed: res.Failed,
		Shed: res.Shed, Lost: res.LostRequests,
		SimSeconds:     res.Duration.Seconds(),
		TokensPerS:     res.TokensPerSec,
		GoodputPerS:    res.Goodput,
		TTFTp50ms:      ms(res.P50TTFT),
		TTFTp99ms:      ms(res.P99TTFT),
		E2Ep99ms:       ms(res.P99E2E),
		HitRate:        res.HitRate,
		KVUtilMean:     res.MeanKVUtil,
		LatencySamples: res.Finished,

		RecomputedTokens:     int(res.RecomputedTokens),
		ComputedPromptTokens: int(res.ComputedPromptTokens),

		Imbalance:     res.Imbalance,
		Migrations:    res.Migrations,
		Redispatched:  res.Redispatched,
		PeerHits:      res.PeerHits,
		PeerHitRate:   res.PeerHitRate,
		FetchRetries:  int(res.FetchRetries),
		FetchFailures: int(res.FetchFailures),
		Crashes:       res.Crashes,
		Restarts:      res.Restarts,
	}
	met := math.Round(res.SLOAttainment * float64(res.Finished))
	s.SLOAttainment = met / float64(submitted)
	for _, pr := range res.PerReplica {
		r := pr.Result
		s.Cancelled += r.Cancelled
		s.Steps += r.Steps
		s.Preemptions += r.Preemptions
		s.GeneratedTokens += int(r.GeneratedTokens)
		s.EncoderRuns += r.EncoderRuns
		s.MeanDecodeBatch += r.MeanDecodeBatch / float64(len(res.PerReplica))
	}
	return s
}

// engineStats folds one engine.Result.
func engineStats(res *engine.Result, submitted int, slo time.Duration) *simStats {
	s := &simStats{
		Submitted: submitted, Finished: res.Finished, Failed: res.Failed,
		Shed: res.Shed, Cancelled: res.Cancelled,
		SimSeconds:     res.Duration.Seconds(),
		TokensPerS:     res.TokensPerSec,
		HitRate:        res.HitRate,
		KVUtilMean:     res.MeanKVUtil,
		LatencySamples: len(res.PerRequest),

		Steps:                res.Steps,
		Preemptions:          res.Preemptions,
		RecomputedTokens:     int(res.RecomputedTokens),
		ComputedPromptTokens: int(res.ComputedPromptTokens),
		GeneratedTokens:      int(res.GeneratedTokens),
		EncoderRuns:          res.EncoderRuns,
		MeanDecodeBatch:      res.MeanDecodeBatch,
	}
	ttfts := make([]time.Duration, len(res.PerRequest))
	e2es := make([]time.Duration, len(res.PerRequest))
	inTime, inSLO := 0, 0
	for i, rm := range res.PerRequest {
		ttfts[i], e2es[i] = rm.TTFT, rm.E2E
		if rm.Deadline == 0 || rm.E2E <= rm.Deadline {
			inTime++
		}
		if rm.TTFT <= slo {
			inSLO++
		}
	}
	s.GoodputPerS = metrics.Goodput(inTime, res.Duration)
	tq := metrics.Percentiles(ttfts, 50, 99)
	s.TTFTp50ms, s.TTFTp99ms = ms(tq[0]), ms(tq[1])
	s.E2Ep99ms = ms(metrics.Percentile(e2es, 99))
	s.SLOAttainment = float64(inSLO) / float64(submitted)
	return s
}
