// Package jenga is a Go reproduction of "Jenga: Effective Memory
// Management for Serving LLM with Heterogeneity" (SOSP 2025): a
// two-level KV-cache allocator for heterogeneous LLMs — different
// embedding sizes per layer type, and different token-dependency
// patterns (full attention, sliding window, Mamba state, cross
// attention, vision embeddings) — with customizable prefix caching.
//
// The package re-exports the library's public surface:
//
//   - NewManager builds Jenga's two-level LCM allocator for a model
//     described by a Spec (see Models for the paper's evaluation zoo).
//   - NewPagedBaseline builds the vLLM-style PagedAttention manager the
//     paper compares against; both implement Manager.
//   - NewEngine runs a continuous-batching serving simulation over any
//     Manager, on a simulated Device, with workloads from NewWorkloadGen.
//     The engine is an event-driven streaming core; Engine.Run is its
//     batch driver.
//   - NewServer wraps an engine as an online serving surface: Submit
//     returns a per-request Stream of token/finish/preempt events,
//     contexts cancel mid-generation (releasing all KV), a bounded
//     queue applies backpressure, and pluggable AdmissionPolicy sheds
//     by KV demand or SLO estimates. Stream.Fork (and Engine.Fork, and
//     Request.Fanout for workload-declared fan-out) clones a decoding
//     request into branches that share all KV computed so far
//     copy-on-write — parallel sampling, beam-search expansion and
//     agentic fan-out without duplicating the prefix (see Forker).
//   - NewFCFS/NewPriority/NewSJF/NewFairShare build scheduling
//     policies for the engine's pluggable scheduling layer (admission
//     order, preemption victim selection, prefill/decode budgeting);
//     every config surface accepts a Scheduler and defaults to FCFS.
//   - WithDraft pairs a target with a draft model: the pair is a Spec
//     like any other, a manager built on it serves both models from
//     one heap, and every serving layer runs it as speculative
//     decoding (§6.1). NewVLLMMax and NewVLLMManual are the §7.4
//     baselines for it.
//   - ManagerConfig.HostTierBytes adds a host-memory KV tier (§8):
//     whole-large-page eviction spills to host instead of discarding,
//     prefix lookups restore spilled blocks over PCIe, and
//     EngineConfig.PreemptMode = PreemptSwap turns preemption into
//     swap-out/swap-in instead of recompute.
//   - NewCluster scales serving out to N engine replicas behind a
//     pluggable request router (round-robin, least-loaded,
//     prefix-affinity). One serve loop, three horizon policies:
//     Serve routes on estimates (batch), ServeOnline against live
//     replica state at every arrival, ServeStream against epoch
//     snapshots over a streamed workload; fleet and chaos configs
//     run under the last two.
//
// Quick start:
//
//	spec := jenga.Models.Gemma2_27B()
//	budget, _ := jenga.KVBudget(spec, jenga.H100(), 0)
//	mgr, _ := jenga.NewManager(jenga.ManagerConfig{
//		Spec: spec, CapacityBytes: budget, EnablePrefixCache: true,
//	})
//	eng, _ := jenga.NewEngine(jenga.EngineConfig{
//		Spec: spec, Device: jenga.H100(), Manager: mgr,
//	})
//	gen := jenga.NewWorkloadGen(42)
//	res, _ := eng.Run(gen.ShareGPT(64))
//	fmt.Printf("%.2f req/s\n", res.ReqPerSec)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package jenga

import (
	"jenga/internal/baseline"
	"jenga/internal/chaos"
	"jenga/internal/cluster"
	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/fleet"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/serve"
	"jenga/internal/workload"
)

// Model description surface.
type (
	// Spec describes a model architecture as KV groups.
	Spec = model.Spec
	// KVGroup is one layer type (kind, layers, bytes per token, ...).
	KVGroup = model.KVGroup
	// Kind is a token-dependency pattern (full, window, mamba, ...).
	Kind = model.Kind
	// TokenScope restricts a group to text or image tokens.
	TokenScope = model.TokenScope
	// VisionSpec describes a multi-modal model's encoder.
	VisionSpec = model.VisionSpec
	// PageGeometry is the compatibility-layer sizing result.
	PageGeometry = model.PageGeometry
	// CompatPolicy selects LCM, GCD or MAX page sizing (§4.4).
	CompatPolicy = model.CompatPolicy
)

// Re-exported Kind values.
const (
	FullAttention   = model.FullAttention
	SlidingWindow   = model.SlidingWindow
	Mamba           = model.Mamba
	CrossAttention  = model.CrossAttention
	VisionEmbedding = model.VisionEmbedding
	PyramidWindow   = model.PyramidWindow

	ScopeAll   = model.ScopeAll
	ScopeText  = model.ScopeText
	ScopeImage = model.ScopeImage

	LCMPage = model.LCMPage
	GCDPage = model.GCDPage
	MaxPage = model.MaxPage
)

// Memory-manager surface.
type (
	// Manager is the KV memory-management contract (Jenga and the
	// PagedAttention baseline both implement it).
	Manager = core.Manager
	// ManagerConfig configures NewManager.
	ManagerConfig = core.Config
	// JengaManager is the paper's two-level manager (extra methods:
	// Stats, Geometry, GroupView, Diagnose).
	JengaManager = core.Jenga
	// Sequence is the manager-facing view of one request.
	Sequence = core.Sequence
	// Token is one sequence element, four bytes: a 31-bit content id and
	// the modality in the sign bit. Token{ID: n} with n ≥ 0 is a text
	// token; build image tokens with ImageToken and read either kind
	// through its Content and Image methods.
	Token = core.Token
	// RequestID identifies a sequence.
	RequestID = core.RequestID
	// Tick is simulated time for LRU ordering.
	Tick = core.Tick
	// Usage is a memory accounting snapshot.
	Usage = core.Usage
	// GroupUsage is the per-layer-type slice of Usage.
	GroupUsage = core.GroupUsage
	// AllocStats counts allocator events.
	AllocStats = core.Stats
	// Policy customizes per-layer-type prefix caching (Fig. 9).
	Policy = core.Policy
	// KeepAlive is the optional Policy extension for always-live head
	// regions (attention sinks).
	KeepAlive = core.KeepAlive
	// GroupSeqView is the read-only view policies evaluate hits on.
	GroupSeqView = core.GroupSeqView
	// OffloadHint is one page an offloading tier should spill (§8).
	OffloadHint = core.OffloadHint
	// TierManager is the optional Manager capability behind the host
	// memory tier: swap-based preemption (SwapOut), per-step transfer
	// draining for the PCIe cost term, and tier statistics.
	// JengaManager implements it; enable the tier with
	// ManagerConfig.HostTierBytes.
	TierManager = core.TierManager
	// TierStats snapshots the host tier's counters (spills, restores,
	// transfer bytes, restored tokens, budget evictions).
	TierStats = core.TierStats
	// Forker is the optional Manager capability behind stream forking:
	// Fork clones a committed sequence into a child sharing every
	// block copy-on-write. JengaManager implements it; Engine.Fork,
	// Stream.Fork and Request.Fanout all require it (and degrade to
	// single-stream serving without it).
	Forker = core.Forker
	// BaselineConfig configures NewPagedBaseline.
	BaselineConfig = baseline.Config
	// PagedBaseline is the vLLM-style homogeneous manager.
	PagedBaseline = baseline.Paged
)

// ErrNoSpace is returned when KV memory cannot be found even after
// eviction.
var ErrNoSpace = core.ErrNoSpace

// NewManager builds Jenga's two-level LCM manager (§4, §5).
func NewManager(cfg ManagerConfig) (*JengaManager, error) { return core.New(cfg) }

// NewPagedBaseline builds the vLLM v0.6.3-style PagedAttention manager:
// one page size for every layer, no sliding-window freeing, static
// Mamba partition.
func NewPagedBaseline(cfg BaselineConfig) (*PagedBaseline, error) { return baseline.NewPaged(cfg) }

// Speculative decoding (§6.1, Fig. 19). WithDraft(target, draft) is the
// pair as one Spec — NewManager on it is the shared Jenga heap, and
// NewEngine, NewServer and NewCluster serve it by propose-and-verify
// decoding, SpecK proposals per verify pass. NewVLLMMax (one page size,
// the target's) and NewVLLMManual (a static split into two paged
// pools) are the §7.4 baseline managers for the same pair.
var (
	WithDraft     = model.WithDraft
	NewVLLMMax    = baseline.NewVLLMMax
	NewVLLMManual = baseline.NewVLLMManual
)

// SpecK is the number of draft tokens proposed per verify pass.
const SpecK = engine.SpecK

// Serving-engine surface.
type (
	// EngineConfig configures NewEngine.
	EngineConfig = engine.Config
	// Engine is the continuous-batching serving simulator.
	Engine = engine.Engine
	// Result aggregates a run's metrics: the totals every report level
	// carries (embedded engine.Totals) plus the engine's own means,
	// timelines and retained records; Result.Latency rolls the records
	// up into goodput, SLO attainment and percentiles.
	Result = engine.Result
	// MemSample is one memory-timeline point.
	MemSample = engine.MemSample
	// VisionStrategy selects the §6.2 embedding-cache strategy.
	VisionStrategy = engine.VisionStrategy
	// PreemptMode selects recompute- or swap-based preemption.
	PreemptMode = engine.PreemptMode
	// RequestMetrics is one request's terminal record — state, TTFT,
	// E2E, tokens generated, preemptions, host-tier restore share —
	// completed at the engine's one exit whatever way the request left.
	RequestMetrics = engine.RequestMetrics
)

// Vision strategies (§6.2).
const (
	VisionNone         = engine.VisionNone
	VisionFreeOnDemand = engine.VisionFreeOnDemand
	VisionReuseKV      = engine.VisionReuseKV
)

// Preemption modes: recompute (vLLM-style, the default) or swap (the
// victim's pages move to the manager's host tier and resume by PCIe
// restore instead of recompute — requires a tiered manager, see
// ManagerConfig.HostTierBytes).
const (
	PreemptRecompute = engine.PreemptRecompute
	PreemptSwap      = engine.PreemptSwap
)

// NewEngine builds a serving simulation.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// Online serving surface (event-driven Server/Stream over the engine's
// streaming core).
type (
	// ServerConfig configures NewServer (wrapped engine config, queue
	// bound, TTFT target).
	ServerConfig = serve.Config
	// Server is the concurrent online serving surface over one engine
	// replica.
	Server = serve.Server
	// Stream is the per-request handle Submit returns; its channel
	// carries the request's scheduler events.
	Stream = serve.Stream
	// StreamResult is a stream's terminal record (state, TTFT, E2E,
	// tokens generated), built from the engine's RequestMetrics.
	StreamResult = serve.StreamResult
	// StreamState is a stream's terminal state.
	StreamState = serve.StreamState
	// ServingReport is the server-level scorecard: the engine's totals,
	// the roll-up of the terminated streams' records (goodput, SLO
	// attainment, latency percentiles) and the server's own counts
	// (submitted, live, shed rate, per-priority rows).
	ServingReport = serve.Report
	// Event is one scheduler occurrence for one request.
	Event = engine.Event
	// EventType classifies an Event.
	EventType = engine.EventType
	// EngineSnapshot is the live scheduler state (queue depths, memory
	// usage) admission and routing decide on.
	EngineSnapshot = engine.Snapshot
	// AdmissionPolicy decides queue-versus-shed at each arrival.
	AdmissionPolicy = engine.AdmissionPolicy
	// AdmissionState is the live state an AdmissionPolicy sees.
	AdmissionState = engine.AdmissionState
	// AdmissionDecision is an AdmissionPolicy verdict.
	AdmissionDecision = engine.AdmissionDecision
	// KVAdmission sheds by estimated KV demand versus live usage.
	KVAdmission = engine.KVAdmission
	// SLOAdmission sheds when queueing estimates bust the TTFT target
	// or the request's own deadline.
	SLOAdmission = engine.SLOAdmission
)

// Stream event types and lifecycle states.
const (
	EventQueued     = engine.EventQueued
	EventFirstToken = engine.EventFirstToken
	EventToken      = engine.EventToken
	EventPreempted  = engine.EventPreempted
	EventFinished   = engine.EventFinished
	EventFailed     = engine.EventFailed
	EventShed       = engine.EventShed
	EventCancelled  = engine.EventCancelled

	AdmitRequest = engine.Admit
	ShedRequest  = engine.Shed

	StreamActive    = serve.StateActive
	StreamFinished  = serve.StateFinished
	StreamFailed    = serve.StateFailed
	StreamShed      = serve.StateShed
	StreamCancelled = serve.StateCancelled
)

// ErrQueueFull (backpressure) and ErrServerClosed are Submit errors.
var (
	ErrQueueFull    = serve.ErrQueueFull
	ErrServerClosed = serve.ErrClosed
)

// NewServer builds an online serving surface over one engine replica
// and starts its scheduler.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// AdmitAll, AdmissionChain and ParseAdmission build admission
// policies; ParseAdmission converts a spelling ("kv+slo").
var (
	AdmitAll       = engine.AdmitAll
	AdmissionChain = engine.AdmissionChain
	ParseAdmission = engine.ParseAdmission
)

// Scheduling surface (internal/sched): the pluggable policy layer
// behind admission order, preemption victim selection and the
// prefill/decode budget split. EngineConfig (a ServerConfig wraps one)
// and ClusterConfig accept a Scheduler; nil means FCFS, the
// historical behavior the golden tests pin.
type (
	// Scheduler is the pluggable scheduling policy.
	Scheduler = sched.Scheduler
	// SchedView is the read-only live state a Scheduler decides on.
	SchedView = sched.View
	// SchedReqInfo is the scheduler-visible summary of one request.
	SchedReqInfo = sched.ReqInfo
	// SchedSplit is a step's decode/prefill token-budget split.
	SchedSplit = sched.Split
	// SchedAdmissionPreempter is the optional Scheduler capability
	// reporting whether a policy preempts for blocked admissions.
	SchedAdmissionPreempter = sched.AdmissionPreempter
	// PriorityReport is one priority class's share of a ServingReport.
	PriorityReport = serve.PriorityReport
)

// Built-in schedulers and helpers. NewFCFS is first-come-first-served
// (the default); NewPriority adds strict priority with admission-time
// preemption of lower classes; NewSJF is shortest-remaining-first
// with a deadline-aware tiebreak; NewFairShare serves tenant groups
// by weighted max-min share. WithPrefillReserve adds the
// chunked-prefill budget reserve to any scheduler; CompareSchedule is
// the shared priority/arrival comparator custom policies can build
// on.
var (
	NewFCFS            = sched.NewFCFS
	NewPriority        = sched.NewPriority
	NewSJF             = sched.NewSJF
	NewFairShare       = sched.NewFairShare
	WithPrefillReserve = sched.WithPrefillReserve
	CompareSchedule    = sched.Compare
)

// Cluster serving surface (scale-out: N engine replicas behind a
// router).
type (
	// ClusterConfig configures NewCluster.
	ClusterConfig = cluster.Config
	// Cluster runs N engine replicas concurrently behind a Router.
	Cluster = cluster.Cluster
	// ClusterResult aggregates a fleet run: the replicas' totals
	// summed, the roll-up of every finished request's record (p50/p99
	// latency, goodput, SLO attainment) and the cluster's own fields
	// (load imbalance, tenant fairness, migrations, the chaos toll).
	ClusterResult = cluster.Result
	// ClusterReplicaResult is one replica's share of a cluster run.
	ClusterReplicaResult = cluster.ReplicaResult
	// Router decides which replica serves each request (pluggable).
	Router = cluster.Router
	// RouterPolicy selects a built-in Router.
	RouterPolicy = cluster.RouterPolicy
	// ReplicaLoad is the router-visible per-replica load state.
	ReplicaLoad = cluster.Load
)

// Built-in router policies.
const (
	RoundRobin     = cluster.RoundRobin
	LeastLoaded    = cluster.LeastLoaded
	PrefixAffinity = cluster.PrefixAffinity
)

// NewCluster builds a multi-replica serving cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewRouter builds a built-in router.
var NewRouter = cluster.NewRouter

// Fleet memory surface (cluster-wide KV store and live request
// migration): FleetPolicy on ClusterConfig.Fleet turns on the fleet
// prefix store (peer replicas serve each other's spilled prefixes over
// the interconnect instead of recomputing), live migration (draining
// or rebalancing replicas hand running requests to survivors mid-
// stream), or both. FleetDirectory is the underlying prefix directory
// — which replica's host tier holds which prefix blocks — and PageSet
// the page-set currency replicas exchange (exported by ExportPrefix,
// accepted by ImportPrefix on a tiered Manager).
type (
	// FleetPolicy configures the fleet store, migration and drain/
	// rebalance schedule on a cluster.
	FleetPolicy = cluster.FleetPolicy
	// FleetDirectory maps prefix blocks to the replicas holding them.
	FleetDirectory = fleet.Directory
	// FleetStore couples a FleetDirectory to every replica's host
	// tier via tier observers.
	FleetStore = fleet.Store
	// PageSet is a set of host-tier pages for one prefix — the unit of
	// peer transfer and migration state. It is a view: a flat block
	// list with page bounds in the exporting manager's scratch, block
	// bytes still in the exporting tier, valid until that manager's
	// next ExportPrefix (and only while its tier does not change).
	// ImportPrefix copies what it admits, so a set may be imported more
	// than once while it is valid; a caller that keeps one longer
	// copies it.
	PageSet = core.PageSet
)

// NewFleetDirectory builds an empty fleet prefix directory;
// NewFleetStore builds a store over n replicas.
var (
	NewFleetDirectory = fleet.NewDirectory
	NewFleetStore     = fleet.NewStore
)

// Chaos surface (deterministic fault injection and crash recovery):
// a ChaosPlan is a seeded, reproducible schedule of replica crashes,
// restarts, degraded-bandwidth and straggler windows plus peer-
// transfer failure rates; ChaosPolicy on ClusterConfig.Chaos attaches
// one to a cluster and toggles the recovery machinery (directory
// invalidation, bounded transfer retries, re-dispatch of crashed
// replicas' requests to survivors).
type (
	// ChaosPlan is the seeded fault schedule (build with NewChaosPlan,
	// chain Crash/Restart/Degrade/Straggle).
	ChaosPlan = chaos.Plan
	// ChaosEvent is one scheduled fault.
	ChaosEvent = chaos.Event
	// ChaosPolicy attaches a plan to a cluster and selects recovery.
	ChaosPolicy = cluster.ChaosPolicy
	// ReplicaHealth is a replica's liveness as routing sees it under a
	// plan (Healthy, Sick inside a fault window, Dead after a crash).
	ReplicaHealth = cluster.Health
)

// NewChaosPlan builds an empty fault plan on a seed; same seed, same
// faults — chaos runs are reproducible bit-for-bit.
var NewChaosPlan = chaos.NewPlan

// Replica health states under a chaos plan.
const (
	ReplicaHealthy = cluster.Healthy
	ReplicaSick    = cluster.Sick
	ReplicaDead    = cluster.Dead
)

// PrefixHash hashes a prompt's first n tokens with the prefix-cache
// block chain (custom routers key consistent hashing on it).
var PrefixHash = core.PrefixHash

// TextToken and ImageToken build a Token from the low 31 bits of a
// content id.
var (
	TextToken  = core.TextToken
	ImageToken = core.ImageToken
)

// Device and cost-model surface.
type (
	// Device is a simulated GPU.
	Device = gpu.Device
	// CostModel converts step work into simulated time.
	CostModel = gpu.CostModel
	// StepWork describes one step's computation.
	StepWork = gpu.StepWork
)

// H100 and L4 are the paper's evaluation platforms.
var (
	H100 = gpu.H100
	L4   = gpu.L4
)

// KVBudget returns the KV byte budget for a model on a device.
var KVBudget = gpu.KVBudget

// Workload surface.
type (
	// Request is one serving request.
	Request = workload.Request
	// WorkloadGen generates the paper's synthetic datasets.
	WorkloadGen = workload.Gen
	// Article is a long document in the arXiv-QA pool.
	Article = workload.Article
)

// NewWorkloadGen creates a deterministic workload generator.
func NewWorkloadGen(seed int64) *WorkloadGen { return workload.NewGen(seed) }

// AllAtOnce zeroes arrival times (offline batch serving);
// MergeStreams combines arrival streams in time order; SplitByGroup
// partitions a stream by its prefix-sharing labels; SetDeadlines
// assigns a uniform end-to-end SLO budget; NaiveFanOut lowers fan-out
// requests (Request.Fanout) to independent per-branch requests — the
// workload an engine without copy-on-write forking must serve.
var (
	AllAtOnce    = workload.AllAtOnce
	MergeStreams = workload.Merge
	SplitByGroup = workload.SplitByGroup
	SetDeadlines = workload.SetDeadlines
	NaiveFanOut  = workload.NaiveFanOut
)

// Models exposes the paper's evaluation zoo (Table 1 and Figs. 18/19).
var Models = struct {
	Llama31_8B       func() *Spec
	Llama31_70B      func() *Spec
	Llama32Vision11B func() *Spec
	Gemma2_27B       func() *Spec
	Gemma2_9B        func() *Spec
	Gemma2_2B        func() *Spec
	Ministral8B      func() *Spec
	MinistralDraft1B func() *Spec
	Jamba52B         func() *Spec
	CharacterAI70B   func() *Spec
	CharacterAI8B    func() *Spec
	PyramidKV70B     func() *Spec
	PyramidKV8B      func() *Spec
	LLaVAOneVision7B func() *Spec
	InternVL2_8B     func() *Spec
	Phi3Vision4B     func() *Spec
	Paligemma2_10B   func() *Spec
	Llama32_1B       func() *Spec
	ByName           func(string) (*Spec, error)
	All              func() []*Spec
}{
	Llama31_8B:       model.Llama31_8B,
	Llama31_70B:      model.Llama31_70B,
	Llama32Vision11B: model.Llama32Vision11B,
	Gemma2_27B:       model.Gemma2_27B,
	Gemma2_9B:        model.Gemma2_9B,
	Gemma2_2B:        model.Gemma2_2B,
	Ministral8B:      model.Ministral8B,
	MinistralDraft1B: model.MinistralDraft1B,
	Jamba52B:         model.Jamba52B,
	CharacterAI70B:   model.CharacterAI70B,
	CharacterAI8B:    model.CharacterAI8B,
	PyramidKV70B:     model.PyramidKV70B,
	PyramidKV8B:      model.PyramidKV8B,
	LLaVAOneVision7B: model.LLaVAOneVision7B,
	InternVL2_8B:     model.InternVL2_8B,
	Phi3Vision4B:     model.Phi3Vision4B,
	Paligemma2_10B:   model.Paligemma2_10B,
	Llama32_1B:       model.Llama32_1B,
	ByName:           model.ByName,
	All:              model.All,
}
