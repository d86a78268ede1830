// Package gpu provides the simulated device substrate: device specs
// for the paper's two platforms and a roofline-style cost model that
// converts a scheduling step's work into simulated time.
//
// The paper's throughput gaps come from batch size (how many requests
// fit in KV memory), not from kernel micro-architecture, so the model
// only needs the first-order terms: a per-step launch overhead, the
// weight read that every step pays once (decode is bandwidth-bound and
// amortizes it across the batch), GEMM FLOPs proportional to tokens ×
// active parameters, attention's KV-read traffic, and the vision
// encoder's FLOPs.
package gpu

import (
	"fmt"
	"time"

	"jenga/internal/model"
)

// Device describes one GPU platform.
type Device struct {
	// Name appears in experiment output.
	Name string
	// MemBytes is total device memory.
	MemBytes int64
	// FLOPS is effective (achievable) compute throughput.
	FLOPS float64
	// MemBW is effective memory bandwidth in bytes/second.
	MemBW float64
	// PCIeBW is effective host↔device interconnect bandwidth in
	// bytes/second (H2D ≈ D2H), the cost term of tiered KV offload:
	// spilling a large page to host memory and restoring it back both
	// ride this link. 0 falls back to DefaultPCIeBW.
	PCIeBW float64
	// LinkBW is effective device↔device interconnect bandwidth in
	// bytes/second (NVLink within a node, InfiniBand across nodes,
	// derated): the cost term of fleet peer transfers — fetching a
	// peer replica's spilled KV pages or migrating a live request's
	// pages both ride this link, not PCIe. 0 falls back to
	// DefaultLinkBW.
	LinkBW float64
	// StepOverhead is the fixed per-step launch/scheduling cost.
	StepOverhead time.Duration
}

// H100 is the paper's default platform: 80 GB, ~1 PFLOP/s peak fp16
// derated to an achievable fraction, 3.35 TB/s HBM3 derated likewise.
func H100() Device {
	return Device{
		Name: "H100", MemBytes: 80 << 30,
		FLOPS: 600e12, MemBW: 2.7e12,
		PCIeBW:       50e9,  // PCIe gen5 ×16, derated
		LinkBW:       250e9, // NVLink 4 per-direction, derated
		StepOverhead: 2 * time.Millisecond,
	}
}

// L4 is the paper's small platform: 24 GB, 121 TFLOP/s fp16 derated,
// 300 GB/s GDDR6.
func L4() Device {
	return Device{
		Name: "L4", MemBytes: 24 << 30,
		FLOPS: 80e12, MemBW: 250e9,
		PCIeBW:       20e9, // PCIe gen4 ×16, derated
		LinkBW:       10e9, // no NVLink: Ethernet/IB NIC class
		StepOverhead: 2 * time.Millisecond,
	}
}

// DefaultReserveFraction is the device memory held back for activations
// and CUDA graphs (the "reserve" band in Fig. 16).
const DefaultReserveFraction = 0.08

// DefaultPCIeBW is the host↔device bandwidth assumed for devices that
// do not declare one (hand-built test devices): PCIe gen4-class.
const DefaultPCIeBW = 25e9

// DefaultLinkBW is the device↔device peer bandwidth assumed for
// devices that do not declare one: NIC-class (IB/Ethernet), well below
// NVLink, so hand-built test devices price peer transfers
// conservatively.
const DefaultLinkBW = 10e9

// encoderWorkFactor scales vision-encoder FLOPs above the 2·params·
// tokens GEMM estimate: high-resolution pipelines (anyres/multi-crop)
// push several image crops through the ViT per emitted token, and ViT
// attention over large patch grids adds quadratic work.
const encoderWorkFactor = 5.0

// KVBudget returns the KV-cache byte budget for a model on a device:
// device memory minus weights (a speculative pair's draft weights
// included — both models are resident) minus the runtime reserve. It
// errors when the weights alone do not fit (the paper's Jamba-on-L4
// OOM case).
func KVBudget(spec *model.Spec, dev Device, reserveFraction float64) (int64, error) {
	if reserveFraction <= 0 {
		reserveFraction = DefaultReserveFraction
	}
	reserve := int64(float64(dev.MemBytes) * reserveFraction)
	weights := spec.WeightFootprint()
	if spec.Draft != nil {
		weights += spec.Draft.WeightFootprint()
	}
	budget := dev.MemBytes - weights - reserve
	if budget <= 0 {
		return 0, fmt.Errorf("gpu: %s does not fit on %s (weights %d + reserve %d > %d)",
			spec.Name, dev.Name, weights, reserve, dev.MemBytes)
	}
	return budget, nil
}

// StepWork describes the computation of one engine step.
type StepWork struct {
	// PrefillTokens is the number of prompt tokens computed this step
	// across the batch (excluding prefix-cache hits).
	PrefillTokens int
	// DecodeSeqs is the number of sequences generating one token each.
	DecodeSeqs int
	// KVReadBytes is the KV traffic attention reads this step.
	KVReadBytes int64
	// EncoderTokens is the number of image tokens pushed through the
	// vision encoder this step.
	EncoderTokens int
	// ExtraWeightPasses counts additional full weight reads in the step
	// (e.g. a speculative draft model running alongside the target).
	ExtraWeightBytes int64
	// SwapBytes is the host↔device KV transfer volume of the step
	// (tiered-offload spills plus restores, H2D and D2H combined);
	// it rides the PCIe link, not HBM.
	SwapBytes int64
	// PeerBytes is the replica↔replica KV transfer volume of the step:
	// fleet-store prefix fetches from a peer's host tier and live
	// request migrations. It rides the device's peer link (NVLink/IB),
	// not PCIe and not HBM.
	PeerBytes int64
	// CopyBytes is the device-to-device KV copy volume of the step:
	// copy-on-write privatizations when forked branches diverge. It
	// rides HBM (one read + one write per byte is folded into the
	// effective bandwidth figure).
	CopyBytes int64
	// KernelEfficiency scales compute/bandwidth terms; 1.0 is the
	// native kernel. The GCD-page ablation uses < 1 (§4.4: GCD paging
	// forces non-contiguous KV layouts that efficient kernels reject).
	KernelEfficiency float64
	// PCIeFactor and LinkFactor scale the respective link bandwidths
	// for this step — fault injection's degraded-link windows. 0 or 1
	// means nominal; 0.25 means the transfer takes 4× as long.
	// TimeFactor multiplies the whole step's duration (the
	// slow-replica straggler); 0 or 1 means nominal.
	PCIeFactor, LinkFactor, TimeFactor float64
}

// CostModel turns StepWork into simulated time for one model on one
// device.
type CostModel struct {
	Dev  Device
	Spec *model.Spec
}

// StepTime returns the simulated duration of one step.
func (c *CostModel) StepTime(w StepWork) time.Duration {
	eff := w.KernelEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	tokens := float64(w.PrefillTokens + w.DecodeSeqs)
	if tokens == 0 && w.EncoderTokens == 0 && w.SwapBytes == 0 && w.CopyBytes == 0 && w.PeerBytes == 0 {
		return 0
	}
	var sec float64
	if tokens > 0 {
		// GEMMs: 2 FLOPs per active parameter per token.
		compute := 2 * float64(c.Spec.ActiveParamCount()) * tokens / c.Dev.FLOPS
		// Weights stream through SRAM once per step regardless of batch
		// size — the term that makes batching pay.
		weights := (float64(c.Spec.WeightFootprint()) + float64(w.ExtraWeightBytes)) / c.Dev.MemBW
		if compute > weights {
			sec += compute
		} else {
			sec += weights
		}
		sec += float64(w.KVReadBytes) / c.Dev.MemBW
	}
	if w.EncoderTokens > 0 && c.Spec.Vision != nil {
		sec += encoderWorkFactor * 2 * float64(c.Spec.Vision.Params) * float64(w.EncoderTokens) / c.Dev.FLOPS
	}
	sec /= eff
	// DMA transfers are not kernel work: neither PCIe swaps, peer-link
	// transfers nor device-to-device CoW copies scale with kernel
	// efficiency.
	if w.CopyBytes > 0 {
		sec += float64(w.CopyBytes) / c.Dev.MemBW
	}
	pcie := c.Dev.PCIeTime(w.SwapBytes)
	if w.PCIeFactor > 0 && w.PCIeFactor != 1 {
		pcie = time.Duration(float64(pcie) / w.PCIeFactor)
	}
	link := c.Dev.LinkTime(w.PeerBytes)
	if w.LinkFactor > 0 && w.LinkFactor != 1 {
		link = time.Duration(float64(link) / w.LinkFactor)
	}
	t := c.Dev.StepOverhead + pcie + link + time.Duration(sec*float64(time.Second))
	if w.TimeFactor > 0 && w.TimeFactor != 1 {
		t = time.Duration(float64(t) * w.TimeFactor)
	}
	return t
}

// PCIeTime converts a host↔device transfer volume into wire time on
// the device's interconnect (DefaultPCIeBW when the device declares
// none) — the single bandwidth-resolution rule behind both the step
// cost model and per-request restore latencies.
func (d Device) PCIeTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	bw := d.PCIeBW
	if bw <= 0 {
		bw = DefaultPCIeBW
	}
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// LinkTime converts a replica↔replica transfer volume into wire time
// on the device's peer interconnect (DefaultLinkBW when the device
// declares none) — the charging rule for fleet prefix fetches and
// live-migration page moves.
func (d Device) LinkTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	bw := d.LinkBW
	if bw <= 0 {
		bw = DefaultLinkBW
	}
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// DecodeKVReadBytes returns the attention KV traffic of one decode step
// for a sequence with the given per-group projected context lengths:
// each group reads what its dependency pattern requires — full layers
// the whole prefix, window layers min(ctx, window), Mamba its state.
func DecodeKVReadBytes(spec *model.Spec, projCtx map[string]int) int64 {
	var total int64
	for i := range spec.Groups {
		total += groupKVReadBytes(&spec.Groups[i], projCtx[spec.Groups[i].Name])
	}
	return total
}

// DecodeKVReadBytesSplit is DecodeKVReadBytes with the projected
// context given as committed (text, image) token counts: each group's
// context follows from its scope, so per-decode cost lookups build no
// map. The engine tracks the two counts incrementally per sequence.
func DecodeKVReadBytesSplit(spec *model.Spec, text, img int) int64 {
	var total int64
	for i := range spec.Groups {
		g := &spec.Groups[i]
		var ctx int
		switch g.Scope {
		case model.ScopeText:
			ctx = text
		case model.ScopeImage:
			ctx = img
		default:
			ctx = text + img
		}
		total += groupKVReadBytes(g, ctx)
	}
	return total
}

// groupKVReadBytes is one group's decode read traffic at context ctx.
func groupKVReadBytes(g *model.KVGroup, ctx int) int64 {
	switch g.Kind {
	case model.Mamba:
		return int64(g.StateBytes) * int64(g.Layers)
	case model.SlidingWindow, model.PyramidWindow:
		if ctx > g.Window {
			ctx = g.Window
		}
		return int64(ctx) * int64(g.BytesPerToken) * int64(g.Layers)
	case model.VisionEmbedding:
		// Embeddings are consumed by prefill, not decode.
		return 0
	default:
		return int64(ctx) * int64(g.BytesPerToken) * int64(g.Layers)
	}
}
