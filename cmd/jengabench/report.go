package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"jenga/internal/bench"
	"jenga/internal/cluster"
)

// label names a scorecard row within its group.
type label struct {
	Scheduler string `json:"scheduler,omitempty"`
	Preempt   string `json:"preempt,omitempty"`
	Mode      string `json:"mode,omitempty"`
}

// row is the one scorecard row: a cluster.Result flattened under the
// column names BENCH_serving.json has always used, plus the host-cost
// columns of the wall-clock scorecard and the allocator columns of the
// fan-out one. Every scorecard writes every result column; one that
// does not measure a column reports it as zero.
type row struct {
	label
	Requests      int     `json:"requests,omitempty"`
	Shards        int     `json:"shards,omitempty"`
	WallMs        float64 `json:"wall_ms,omitempty"`
	ReqPerWallSec float64 `json:"req_per_wall_s,omitempty"`
	PeakHeapMB    float64 `json:"peak_heap_mb,omitempty"`

	ReqPerSec          float64 `json:"req_per_s"`
	Goodput            float64 `json:"goodput_per_s"`
	SLOAttainment      float64 `json:"slo_attainment"`
	ShedRate           float64 `json:"shed_rate"`
	P50TTFTMs          float64 `json:"p50_ttft_ms"`
	P99TTFTMs          float64 `json:"p99_ttft_ms"`
	P50E2EMs           float64 `json:"p50_e2e_ms"`
	P99E2EMs           float64 `json:"p99_e2e_ms"`
	HitRate            float64 `json:"hit_rate"`
	MeanKVUtil         float64 `json:"mean_kv_util"`
	Imbalance          float64 `json:"imbalance"`
	GroupJain          float64 `json:"group_jain"`
	MaxGroupMeanTTFTMs float64 `json:"max_group_mean_ttft_ms"`
	Finished           int     `json:"finished"`
	Failed             int     `json:"failed"`
	Shed               int     `json:"shed"`
	LostRequests       int     `json:"lost_requests"`

	TierHitRate          float64 `json:"tier_hit_rate"`
	RestoredTokens       int64   `json:"restored_tokens"`
	RecomputedTokens     int64   `json:"recomputed_tokens"`
	ComputedPromptTokens int64   `json:"computed_prompt_tokens"`
	SwapOuts             int64   `json:"swap_outs"`
	SwapIns              int64   `json:"swap_ins"`
	RestoreP99Ms         float64 `json:"restore_p99_ms"`

	PeerHits    int     `json:"peer_hits"`
	PeerHitRate float64 `json:"peer_hit_rate"`
	PeerBytes   int64   `json:"peer_bytes"`
	Migrations  int     `json:"migrations"`

	Crashes            int   `json:"crashes"`
	Restarts           int   `json:"restarts"`
	Redispatched       int   `json:"redispatched"`
	DirInvalidations   int   `json:"dir_invalidations"`
	MigrationRollbacks int   `json:"migration_rollbacks"`
	FetchRetries       int64 `json:"fetch_retries"`
	FetchFailures      int64 `json:"fetch_failures"`

	PeakKVBytes      int64   `json:"peak_kv_bytes"`
	KVBytesPerBranch float64 `json:"kv_bytes_per_branch"`
	Forks            int64   `json:"forks"`
	CowCopies        int64   `json:"cow_copies"`
	CowCopyBytes     int64   `json:"cow_copy_bytes"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rowOf flattens one cluster result of a submitted-request run.
func rowOf(res *cluster.Result, submitted int) row {
	return row{
		ReqPerSec:          res.ReqPerSec,
		Goodput:            res.Goodput,
		SLOAttainment:      res.SLOAttainment,
		ShedRate:           float64(res.Shed) / float64(submitted),
		P50TTFTMs:          ms(res.P50TTFT),
		P99TTFTMs:          ms(res.P99TTFT),
		P50E2EMs:           ms(res.P50E2E),
		P99E2EMs:           ms(res.P99E2E),
		HitRate:            res.HitRate,
		MeanKVUtil:         res.MeanKVUtil,
		Imbalance:          res.Imbalance,
		GroupJain:          res.GroupJain,
		MaxGroupMeanTTFTMs: ms(res.MaxGroupMeanTTFT),
		Finished:           res.Finished,
		Failed:             res.Failed,
		Shed:               res.Shed,
		LostRequests:       res.LostRequests,

		TierHitRate:          res.TierHitRate,
		RestoredTokens:       res.RestoredTokens,
		RecomputedTokens:     res.RecomputedTokens,
		ComputedPromptTokens: res.ComputedPromptTokens,
		SwapOuts:             res.SwapOuts,
		SwapIns:              res.SwapIns,
		RestoreP99Ms:         ms(res.P99Restore),

		PeerHits:    res.PeerHits,
		PeerHitRate: res.PeerHitRate,
		PeerBytes:   res.PeerBytes,
		Migrations:  res.Migrations,

		Crashes:            res.Crashes,
		Restarts:           res.Restarts,
		Redispatched:       res.Redispatched,
		DirInvalidations:   res.DirInvalidations,
		MigrationRollbacks: res.MigrationRollbacks,
		FetchRetries:       res.FetchRetries,
		FetchFailures:      res.FetchFailures,
	}
}

// field returns the field of struct v stored under the JSON key name.
// Scorecards name their table columns, their row groups and their file
// sections by JSON key, so the key is written once, in the struct tag.
func field(v reflect.Value, name string) reflect.Value {
	for _, f := range reflect.VisibleFields(v.Type()) {
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag == name {
			return v.FieldByIndex(f.Index)
		}
	}
	panic(fmt.Sprintf("jengabench: %s has no JSON key %q", v.Type(), name))
}

// header describes a scorecard's base scenario. Fields a scenario
// leaves at zero are omitted.
type header struct {
	Model       string  `json:"model,omitempty"`
	Device      string  `json:"device,omitempty"`
	Replicas    int     `json:"replicas,omitempty"`
	Router      string  `json:"router,omitempty"`
	Admission   string  `json:"admission,omitempty"`
	Workload    string  `json:"workload,omitempty"`
	Requests    int     `json:"requests,omitempty"`
	RatePerS    float64 `json:"rate_per_s,omitempty"`
	Groups      int     `json:"groups,omitempty"`
	PrefixLen   int     `json:"prefix_len,omitempty"`
	SuffixLen   int     `json:"suffix_len,omitempty"`
	Phases      int     `json:"phases,omitempty"`
	PrioClasses int     `json:"prio_classes,omitempty"`
	SLOTTFTMs   float64 `json:"slo_ttft_ms,omitempty"`
	DeadlineMs  float64 `json:"deadline_ms,omitempty"`
	HostGB      float64 `json:"host_gb,omitempty"`
	KvGB        float64 `json:"kv_gb,omitempty"`
	Seed        int64   `json:"seed,omitempty"`

	DrainAfterMs  float64 `json:"drain_after_ms,omitempty"`
	DrainReplicas int     `json:"drain_replicas,omitempty"`

	// The fault plan, materialized: replica 0 is a valid target, so
	// the replica is a pointer rather than omitted at zero.
	CrashReplica  *int    `json:"crash_replica,omitempty"`
	CrashAtMs     float64 `json:"crash_at_ms,omitempty"`
	RestartAtMs   float64 `json:"restart_at_ms,omitempty"`
	FetchFailRate float64 `json:"fetch_fail_rate,omitempty"`
	PlanSeed      int64   `json:"plan_seed,omitempty"`

	// Fan-out shape (the fanout scorecard's finish hook fills these:
	// its roots and prompt length are the scenario's Requests and
	// PrefixLen under the names its section has always used).
	PromptLen int `json:"prompt_len,omitempty"`
	ForkAfter int `json:"fork_after,omitempty"`
	OutputLen int `json:"output_len,omitempty"`
	Branch    int `json:"branch,omitempty"`
	Roots     int `json:"roots,omitempty"`

	// The measuring host (the scale scorecard's finish hook fills
	// these: wall-clock shard scaling is bounded by physical cores).
	SnapshotEveryMs float64 `json:"snapshot_every_ms,omitempty"`
	NumCPU          int     `json:"num_cpu,omitempty"`
	Gomaxprocs      int     `json:"gomaxprocs,omitempty"`
	Note            string  `json:"note,omitempty"`
}

// headerOf flattens the scenario a scorecard's variants share.
func headerOf(s bench.Scenario) (header, error) {
	h := header{
		Model: s.Spec.Name, Device: s.Device.Name,
		Workload: "prefixgroups",
		Requests: s.RequestCount(), RatePerS: s.Rate,
		Groups: s.Groups, PrefixLen: s.PrefixLen, SuffixLen: s.SuffixLen,
		PrioClasses: s.PrioClasses, SLOTTFTMs: ms(s.SLOTTFT), DeadlineMs: ms(s.Deadline),
		HostGB: float64(s.HostTierBytes) / gib, KvGB: float64(s.CapacityBytes) / gib,
		Seed:         s.Seed,
		DrainAfterMs: ms(s.Fleet.DrainAfter), DrainReplicas: s.Fleet.DrainReplicas,
	}
	if s.Churn {
		h.Workload, h.Phases = "churn", s.Phases
	}
	if s.Replicas > 0 {
		h.Replicas, h.Router = s.Replicas, s.Router.String()
	}
	if s.Admission != nil {
		h.Admission = s.Admission.Name()
	}
	plan, err := s.Plan()
	if plan != nil {
		crash, restart := plan.Events[0], plan.Events[1]
		h.CrashReplica, h.CrashAtMs, h.RestartAtMs = &crash.Replica, ms(crash.At), ms(restart.At)
		h.FetchFailRate, h.PlanSeed = plan.FetchFailRate, plan.Seed
	}
	return h, err
}

// section is one scorecard as its file stores it: the base scenario's
// header, each row group under the key it has always had, and the few
// ratios derived across rows.
type section struct {
	header
	Policies []row `json:"policies,omitempty"` // stream
	Modes    []row `json:"modes,omitempty"`    // fanout
	Churn    []row `json:"churn,omitempty"`    // fleet
	Drain    []row `json:"drain,omitempty"`    // fleet
	Rows     []row `json:"rows,omitempty"`     // routers, chaos
	// SavingsX is naive kv_bytes_per_branch over fork's: how many
	// times less KV a forked branch holds at the memory peak.
	SavingsX float64 `json:"kv_bytes_per_branch_savings_x,omitempty"`

	// The scale scorecard: Serial is the ServeOnline baseline and
	// Stream the same workload through ServeStream at one shard — their
	// ratio is the algorithmic speedup of epoch snapshots plus streamed
	// aggregation, no parallelism involved.
	Serial         *row    `json:"serial_baseline,omitempty"`
	Stream         *row    `json:"stream_baseline,omitempty"`
	StreamVsSerial float64 `json:"stream_vs_serial_speedup,omitempty"`
	SpeedupAt8Vs1  float64 `json:"speedup_8_shards_vs_1,omitempty"`
	ShardSweep     []row   `json:"shard_sweep,omitempty"`
}

// add files r under the row group key: appended to a list, or set
// where the group is a single row.
func (s *section) add(key string, r row) {
	if f := field(reflect.ValueOf(s).Elem(), key); f.Kind() == reflect.Slice {
		f.Set(reflect.Append(f, reflect.ValueOf(r)))
	} else {
		f.Set(reflect.ValueOf(&r))
	}
}

// servingFile is BENCH_serving.json. The stream scorecard's section
// sits at the root — the file began as that scorecard alone — and every
// later scorecard lives under its name. Those are kept as raw JSON, so
// writing one section carries the others over byte for byte, the
// minutes-long scale section included.
type servingFile struct {
	section
	Routers json.RawMessage `json:"routers,omitempty"`
	Fanout  json.RawMessage `json:"fanout,omitempty"`
	Fleet   json.RawMessage `json:"fleet,omitempty"`
	Chaos   json.RawMessage `json:"chaos,omitempty"`
	Scale   json.RawMessage `json:"scale,omitempty"`
}

// named returns the slot of a scorecard stored under its name.
func (f *servingFile) named(name string) *json.RawMessage {
	return field(reflect.ValueOf(f).Elem(), name).Addr().Interface().(*json.RawMessage)
}

// set replaces scorecard name's section.
func (f *servingFile) set(name string, sec *section) error {
	if name == "stream" {
		f.section = *sec
		return nil
	}
	raw, err := json.Marshal(sec)
	*f.named(name) = raw
	return err
}

// decodeStrict decodes exactly one JSON value with no field v lacks: a
// key the decoder dropped is a key the next write would erase.
func decodeStrict(buf []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// updateJSON is the one read-modify-write every scorecard file goes
// through: decode path into a T (a missing file is an empty T), let
// patch change it, and replace the file atomically. A file that cannot
// be read or decoded is an error and stays as it is — decoding it to
// the zero value would make the write erase every other section.
func updateJSON[T any](path string, patch func(*T) error) error {
	var doc T
	switch buf, err := os.ReadFile(path); {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := decodeStrict(buf, &doc); err != nil {
			return fmt.Errorf("%s: %w (not overwritten: fix or delete it)", path, err)
		}
	}
	if err := patch(&doc); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename has happened
	if _, err := tmp.Write(append(buf, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
