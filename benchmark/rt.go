package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// rtSnap is a point-in-time reading of what the Go runtime and the kernel
// say this process has spent: the CPU side of the two-clock rule. Deltas
// between two snapshots bracket a timed region.
type rtSnap struct {
	wall       time.Time
	cpu        float64 // user+system CPU seconds (getrusage)
	allocBytes uint64  // cumulative heap bytes allocated
	mallocs    uint64  // cumulative heap objects allocated
	gcCPU      float64 // runtime's estimate of CPU seconds spent in GC
	gcCycles   uint64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRT() rtSnap {
	s := rtSnap{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.mallocs = samples[1].Value.Uint64()
	s.gcCPU = samples[2].Value.Float64()
	s.gcCycles = samples[3].Value.Uint64()
	return s
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// rtDelta is what one timed region cost the Go side.
type rtDelta struct {
	wallS      float64
	cpuS       float64
	allocBytes float64
	mallocs    float64
	gcCPUS     float64
	gcCycles   float64
}

func (a rtSnap) since(b rtSnap) rtDelta {
	return rtDelta{
		wallS:      a.wall.Sub(b.wall).Seconds(),
		cpuS:       a.cpu - b.cpu,
		allocBytes: float64(a.allocBytes - b.allocBytes),
		mallocs:    float64(a.mallocs - b.mallocs),
		gcCPUS:     a.gcCPU - b.gcCPU,
		gcCycles:   float64(a.gcCycles - b.gcCycles),
	}
}

// cpuShare is CPU seconds over the wall seconds all processors offered.
func (d rtDelta) cpuShare() float64 {
	return ratio(d.cpuS, d.wallS*float64(runtime.GOMAXPROCS(0)))
}

func (d *rtDelta) add(o rtDelta) {
	d.wallS += o.wallS
	d.cpuS += o.cpuS
	d.allocBytes += o.allocBytes
	d.mallocs += o.mallocs
	d.gcCPUS += o.gcCPUS
	d.gcCycles += o.gcCycles
}

// liveHeapMB forces two collections (the second sweeps what the first's
// finalizers released) and returns the bytes of live heap objects in MiB.
// keep lists what must stay reachable across the measurement.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}
