package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// childEnv is what one workload process runs with.
type childEnv struct {
	workload  string
	seed      int64
	seconds   int
	fixedOps  int  // > 0: run exactly this many timed ops instead of for seconds
	setupOnly bool // stop after set-up
	start     time.Time
	spans     *spanLog  // nil unless traced
	prof      *profiler // nil unless traced
	failures  int
}

// fail reports a failed op on stderr; only the first few are printed.
func (e *childEnv) fail(format string, args ...any) {
	e.failures++
	if e.failures <= 5 {
		fmt.Fprintf(os.Stderr, "%s: "+format+"\n", append([]any{e.workload}, args...)...)
	}
}

// childReport is what a workload process hands its parent, as one JSON
// line on standard output.
type childReport struct {
	SetupDone  int64             `json:"setup_done"` // Unix ns when set-up ended
	Ops        int               `json:"ops"`
	Rerun      int               `json:"rerun"` // the -ops value that repeats this run's work
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations int               `json:"violations"`
	Digests    []string          `json:"digests,omitempty"`
	Metrics    map[string]metric `json:"metrics,omitempty"`
	Spans      []spanStat        `json:"spans,omitempty"`
}

// metric is one measured value with its unit and the counts behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Ops     int     `json:"ops,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// timedMetrics derives the metrics every workload reports from the host
// cost of its timed phase, its op count and its per-op latencies (ms).
func timedMetrics(c hostCost, ops int, lats []float64) map[string]metric {
	n := float64(ops)
	s := sorted(lats)
	tail := tailPermille(len(s))
	tailMS := 0.0 // too few samples for any tail
	if tail > 0 {
		tailMS = percentile(s, tail)
	}
	return map[string]metric{
		"ops_per_s":                    {Value: n / c.wall.Seconds(), Unit: "op/s", Ops: ops},
		"latency_ms.p50":               {Value: percentile(s, 500), Unit: "ms", Ops: ops, Samples: len(s)},
		"latency_ms.tail":              {Value: tailMS, Unit: "ms", Ops: ops, Samples: len(s)},
		"latency_ms.tail_permille":     {Value: float64(tail), Unit: "permille", Samples: len(s)},
		"cpu_ms_per_op":                {Value: ms(c.cpu) / n, Unit: "ms", Ops: ops},
		"allocs_per_op":                {Value: float64(c.allocs) / n, Unit: "count", Ops: ops},
		"alloc_bytes_per_op":           {Value: float64(c.allocBytes) / n, Unit: "B", Ops: ops},
		"runtime.gc_cycles_per_op":     {Value: float64(c.gcCycles) / n, Unit: "count", Ops: ops},
		"runtime.gc_cpu_share":         {Value: c.gcShare, Unit: "ratio"},
		"runtime.mutex_wait_ms_per_op": {Value: c.mutexWait * 1e3 / n, Unit: "ms", Ops: ops},
		"runtime.sched_latency_ms.p99": {Value: c.schedP99 * 1e3, Unit: "ms"},
	}
}

// profiler takes the CPU and allocation profiles of a traced run's timed
// phase and turns them into the per-layer host-cost budget. A nil
// profiler does nothing.
type profiler struct {
	dir, workload string
	cpuFile       *os.File
	allocsBase    *profile
}

func (p *profiler) path(kind string) string {
	return filepath.Join(p.dir, p.workload+"."+kind)
}

func (p *profiler) start() error {
	if p == nil {
		return nil
	}
	base, err := p.allocs("")
	if err != nil {
		return err
	}
	p.allocsBase = base
	if p.cpuFile, err = os.Create(p.path("cpu.pprof")); err != nil {
		return err
	}
	return pprof.StartCPUProfile(p.cpuFile)
}

// allocs reads the allocation profile, writing it to path too unless
// path is empty. The profile is complete only as of the last GC, hence
// the GC.
func (p *profiler) allocs(path string) (*profile, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	if path != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	return parseProfile(buf.Bytes())
}

// stop ends profiling and returns layer.<L>.cpu_share, .cpu_us_per_op
// and .allocs_per_op for every layer.
func (p *profiler) stop(ops int) (map[string]metric, error) {
	if p == nil {
		return nil, nil
	}
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p.path("cpu.pprof"))
	if err != nil {
		return nil, err
	}
	cpu, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	cpuNS, err := cpu.byLayer("cpu")
	if err != nil {
		return nil, err
	}
	end, err := p.allocs(p.path("allocs.pprof"))
	if err != nil {
		return nil, err
	}
	endObjs, err := end.byLayer("alloc_objects")
	if err != nil {
		return nil, err
	}
	baseObjs, err := p.allocsBase.byLayer("alloc_objects")
	if err != nil {
		return nil, err
	}
	var total int64
	for _, v := range cpuNS {
		total += v
	}
	n := float64(ops)
	out := make(map[string]metric)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(cpuNS[l]) / float64(total)
		}
		out["layer."+l+".cpu_share"] = metric{Value: share, Unit: "ratio"}
		out["layer."+l+".cpu_us_per_op"] = metric{Value: float64(cpuNS[l]) / 1e3 / n, Unit: "us", Ops: ops}
		out["layer."+l+".allocs_per_op"] = metric{Value: float64(endObjs[l]-baseObjs[l]) / n, Unit: "count", Ops: ops}
	}
	return out, nil
}

// runChild runs one workload in this process and returns its report.
func runChild(env *childEnv) (childReport, error) {
	switch env.workload {
	case "table2":
		return tableIIWorkload(env.seed, false).run(env)
	case "vision":
		return tableIIWorkload(env.seed, true).run(env)
	case "city-1000":
		return cityWorkload(env.seed).run(env)
	case "service-500":
		return runService(env)
	}
	return childReport{}, fmt.Errorf("unknown workload %q", env.workload)
}
