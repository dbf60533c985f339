package main

import (
	"math"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is one reading of the process's host-side counters; the
// difference of two readings is the cost of what ran between them.
type hostSample struct {
	wall       time.Time
	cpu        time.Duration // user + system, all threads
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
	mutexWait  float64 // seconds
	sched      *metrics.Float64Histogram
}

var hostMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readHost() hostSample {
	samples := make([]metrics.Sample, len(hostMetricNames))
	for i, name := range hostMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	return hostSample{
		wall:       time.Now(),
		cpu:        cpuTime(),
		allocs:     samples[0].Value.Uint64(),
		allocBytes: samples[1].Value.Uint64(),
		gcCycles:   samples[2].Value.Uint64(),
		gcCPU:      samples[3].Value.Float64(),
		totalCPU:   samples[4].Value.Float64(),
		mutexWait:  samples[5].Value.Float64(),
		sched:      samples[6].Value.Float64Histogram(),
	}
}

// hostCost is the difference between two host samples.
type hostCost struct {
	wall       time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcShare    float64 // GC's share of the runtime-accounted CPU
	mutexWait  float64 // seconds
	schedP99   float64 // seconds a runnable goroutine waited, p99
}

func (b hostSample) since(a hostSample) hostCost {
	c := hostCost{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocs:     b.allocs - a.allocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		mutexWait:  b.mutexWait - a.mutexWait,
	}
	if total := b.totalCPU - a.totalCPU; total > 0 {
		c.gcShare = (b.gcCPU - a.gcCPU) / total
	}
	c.schedP99 = histogramDeltaP99(a.sched, b.sched)
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// histogramDeltaP99 returns the upper edge of the bucket holding the
// 99th percentile of the observations b gained over a.
func histogramDeltaP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(rank(int(total), 990))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}
