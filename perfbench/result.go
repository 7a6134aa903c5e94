//horus:wallclock — host-cost meters read process CPU time, allocation counters and the wall clock; they never feed the simulation.

package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run measured.
type result struct {
	// attempted and delivered count (cast, member) pairs for the casts
	// due inside the measure window; lat holds their due→deliver times.
	attempted, delivered uint64
	lat                  []int64

	// cost is the host-cost window: CPU, allocations and fabric
	// traffic over the measure phase, divided by the deliveries it saw.
	cost costWindow

	setup []float64 // wall seconds of each repeated set-up
	errs  []string  // correctness violations
	gaps  []string  // completeness violations: issued casts missing after the drain

	diag  map[string]metric // workload-specific figures printed above the result
	layer map[string]metric // per-layer metrics (traced run)
	spans []spanRec         // bounded raw span sample (traced run)
}

func newResult() *result {
	return &result{diag: map[string]metric{}, layer: map[string]metric{}}
}

// violation records a correctness failure, keeping the first few.
func (r *result) violation(format string, args ...interface{}) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// gap records a completeness failure, kept apart from the other
// violations because a knee-sweep point past the knee may have them.
func (r *result) gap(format string, args ...interface{}) {
	if len(r.gaps) < 20 {
		r.gaps = append(r.gaps, fmt.Sprintf(format, args...))
	}
}

// failures lists every correctness and completeness violation.
func (r *result) failures() []string {
	return append(append([]string(nil), r.errs...), r.gaps...)
}

// cpuPerDelivery is process CPU over the measure window per delivery, µs.
func (r *result) cpuPerDelivery() float64 {
	return r.cost.cpu * 1e6 / float64(max(r.cost.deliveries, 1))
}

// endToEnd is the metric set every workload reports untraced.
func (r *result) endToEnd() map[string]metric {
	d := float64(max(r.cost.deliveries, 1))
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.delivered) / float64(r.attempted)
	}
	r.diag["latency_samples"] = metric{float64(len(r.lat)), "count"}
	r.diag["latency_p99_ms"] = metric{quantileMs(r.lat, 0.99), "ms"}
	r.diag["setup_samples"] = metric{float64(len(r.setup)), "count"}
	r.diag["deliveries"] = metric{float64(r.cost.deliveries), "count"}
	return map[string]metric{
		"setup_s":                 {median(r.setup), "s"},
		"latency_p50_ms":          {quantileMs(r.lat, 0.50), "ms"},
		"delivered_ratio":         {ratio, "ratio"},
		"cpu_us_per_delivery":     {r.cpuPerDelivery(), "us"},
		"allocs_per_delivery":     {float64(r.cost.mallocs) / d, "count"},
		"wire_bytes_per_delivery": {float64(r.cost.wireBytes) / d, "B"},
		"packets_per_delivery":    {float64(r.cost.packets) / d, "count"},
		"heap_peak_mb":            {r.cost.heapPeakMB(), "MB"},
	}
}

// quantileMs is the nearest-rank quantile of nanosecond samples, in ms.
// It sorts xs in place.
func quantileMs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i]) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// costWindow accumulates host cost over a measure phase: process CPU
// (getrusage user+sys), MemStats.Mallocs, peak HeapInuse, GC activity,
// and the fabric traffic the workload attributes to the window.
type costWindow struct {
	deliveries uint64 // delivery upcalls inside the window
	casts      uint64 // casts issued inside the window
	wireBytes  uint64
	packets    uint64
	cpu        float64 // seconds
	wall       float64 // seconds
	mallocs    uint64
	heapPeak   uint64 // peak HeapInuse, bytes
	gcCycles   uint64
	gcShare    float64

	startCPU, startWall float64
	startMallocs        uint64
	startGC             uint32
	startGCCPU, startCP float64
	samples             []metrics.Sample
}

var heapSampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func (c *costWindow) begin() {
	runtime.GC() // every window starts from the same collected heap
	c.samples = make([]metrics.Sample, len(heapSampleNames))
	for i, n := range heapSampleNames {
		c.samples[i].Name = n
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.startMallocs, c.startGC = ms.Mallocs, ms.NumGC
	metrics.Read(c.samples)
	c.startGCCPU, c.startCP = c.samples[2].Value.Float64(), c.samples[3].Value.Float64()
	c.startCPU, c.startWall = cpuSeconds(), wallSeconds()
	c.sampleHeap()
}

// heapPeakMB is the peak HeapInuse sampled over the window, MB.
func (c *costWindow) heapPeakMB() float64 { return float64(c.heapPeak) / (1 << 20) }

// sampleHeap folds the current HeapInuse into the peak.
func (c *costWindow) sampleHeap() {
	metrics.Read(c.samples[:2])
	if h := c.samples[0].Value.Uint64() + c.samples[1].Value.Uint64(); h > c.heapPeak {
		c.heapPeak = h
	}
}

func (c *costWindow) end() {
	c.cpu, c.wall = cpuSeconds()-c.startCPU, wallSeconds()-c.startWall
	c.sampleHeap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcCycles = ms.Mallocs-c.startMallocs, uint64(ms.NumGC-c.startGC)
	metrics.Read(c.samples)
	if total := c.samples[3].Value.Float64() - c.startCP; total > 0 {
		c.gcShare = (c.samples[2].Value.Float64() - c.startGCCPU) / total
	}
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var wallBase = time.Now()

// wallSeconds is monotonic wall time since process start.
func wallSeconds() float64 { return time.Since(wallBase).Seconds() }
