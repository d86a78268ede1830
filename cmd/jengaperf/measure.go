package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// hostSample is what one timed pass cost the host.
type hostSample struct {
	wallS      float64
	cpuS       float64 // process user+sys CPU (getrusage)
	peakHeapMB float64 // peak sampled heap-object bytes, MiB
	mallocs    float64 // Go heap allocations during the pass
}

const (
	metricHeapBytes = "/memory/classes/heap/objects:bytes"
	metricAllocB    = "/gc/heap/allocs:bytes"
)

// mallocCount is the cumulative number of heap allocations, tiny
// (combined) ones included — the same count as MemStats.Mallocs.
func mallocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler records the peak heap-object bytes every 50 ms through
// runtime/metrics (no stop-the-world ReadMemStats). stop returns once
// the sampling goroutine has exited.
type heapSampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, readMetric(metricHeapBytes))
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.quit)
	h.wg.Wait()
	return max(h.peak, readMetric(metricHeapBytes))
}

// measure times fn as one pass. The caller has already collected the
// previous pass's garbage, so the peak belongs to this pass.
func measure(fn func() error) (hostSample, error) {
	sampler := startHeapSampler()
	allocs0 := mallocCount()
	cpu0 := cpuSeconds()
	t0 := now()
	err := fn()
	wall := now() - t0
	cpu := cpuSeconds() - cpu0
	allocs := mallocCount() - allocs0
	peak := sampler.stop()
	return hostSample{
		wallS:      wall.Seconds(),
		cpuS:       cpu,
		peakHeapMB: float64(peak) / (1 << 20),
		mallocs:    float64(allocs),
	}, err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
