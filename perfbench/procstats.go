package main

import (
	"runtime/metrics"
	"syscall"
)

// peakRSSMB is the process's peak resident set size (getrusage
// ru_maxrss, KiB on Linux) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// goStats is a sample of the Go runtime's own counters
// (runtime/metrics): user CPU, heap allocation, GC cycles and the
// summed scheduling latency of goroutines.
type goStats struct {
	userCPU    float64 // seconds
	allocBytes float64
	gcCycles   float64
	schedWait  float64 // seconds, bucket midpoints × counts
}

var goSampleNames = []string{
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var g goStats
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			if s.Name == goSampleNames[0] {
				g.userCPU = s.Value.Float64()
			}
		case metrics.KindUint64:
			switch s.Name {
			case goSampleNames[1]:
				g.allocBytes = float64(s.Value.Uint64())
			case goSampleNames[2]:
				g.gcCycles = float64(s.Value.Uint64())
			}
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			for i, c := range h.Counts {
				lo, hi := h.Buckets[i], h.Buckets[i+1]
				if lo < 0 || hi > 1e9 { // open-ended edge buckets
					lo = max(lo, 0)
					hi = min(hi, lo)
				}
				g.schedWait += float64(c) * (lo + hi) / 2
			}
		}
	}
	return g
}

func (g goStats) sub(o goStats) goStats {
	return goStats{
		userCPU:    g.userCPU - o.userCPU,
		allocBytes: g.allocBytes - o.allocBytes,
		gcCycles:   g.gcCycles - o.gcCycles,
		schedWait:  g.schedWait - o.schedWait,
	}
}
