// Command bench is itsbed's end-to-end benchmark. It runs four
// workloads — a Table II attempt (table2), the same attempt through the
// image pipeline (vision), a 1000-vehicle city second (city-1000) and a
// 500-station service request mix (service-500) — each in its own child
// process, checks their outputs, and prints every end-to-end metric by
// name and unit. With -trace 1 it runs each workload again with CPU and
// allocation profiles and benchmark-side spans, and prints the
// per-layer host-cost budget. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupSamples is how many processes measure setup_s in an untraced
// run; the median is reported.
const setupSamples = 9

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

type options struct {
	workload, traceDir, out, updateDigests string
	seed                                   int64
	seconds, trace, ops                    int
	compare, child, setupOnly              bool
}

func main() {
	start := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed every op derives from")
	flag.IntVar(&o.seconds, "seconds", 25, "how long each workload measures")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reporting the per-layer metrics")
	flag.StringVar(&o.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "where a traced run writes its profiles and spans")
	flag.StringVar(&o.out, "out", "", "also write every metric with provenance to this JSON file")
	flag.BoolVar(&o.compare, "compare", false, "compare the -out files of two directories: -compare PARENT_DIR CHANGE_DIR")
	flag.StringVar(&o.updateDigests, "update-digests", "", "record the output digests of this run (at the default seed) in this file")
	flag.BoolVar(&o.child, "child", false, "(internal) run one workload in this process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "(internal) stop after set-up")
	flag.IntVar(&o.ops, "ops", 0, "(internal) run this many timed ops instead of for -seconds")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two directories: PARENT_DIR CHANGE_DIR")
			break
		}
		err = compareDirs(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case o.child:
		err = childMain(o, start)
	default:
		err = parentMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func childMain(o options, start time.Time) error {
	env := &childEnv{workload: o.workload, seed: o.seed, seconds: o.seconds,
		fixedOps: o.ops, setupOnly: o.setupOnly, start: start}
	if o.trace == 1 {
		// Sample an allocation every 16 KiB rather than 512 KiB, so that
		// layers allocating little still show in the budget.
		runtime.MemProfileRate = 16 << 10
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return err
		}
		env.spans = &spanLog{}
		env.prof = &profiler{dir: o.traceDir, workload: o.workload}
	}
	rep, err := runChild(env)
	if err != nil {
		return err
	}
	if env.spans != nil {
		rep.Spans = env.spans.stats()
		if err := env.spans.writeChrome(filepath.Join(o.traceDir, o.workload+".spans.json")); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// workloadResult is one workload's outcome as the parent reports it.
type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	digests   []string
	spans     []spanStat
	notes     []string
}

func parentMain(o options) error {
	run := workloads
	if o.workload != "" {
		if !slices.Contains(workloads, o.workload) {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloads, ", "))
		}
		run = []string{o.workload}
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.updateDigests != "" && o.seed != defaultSeed {
		return fmt.Errorf("-update-digests needs the default seed %d", defaultSeed)
	}
	results := map[string]workloadResult{}
	allCorrect := true
	for _, w := range run {
		res, err := runWorkload(o, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		results[w] = res
		allCorrect = allCorrect && res.Correct
		printResult(os.Stdout, o, w, res)
	}
	if o.out != "" {
		if err := writeOut(o, results); err != nil {
			return err
		}
	}
	if o.updateDigests != "" {
		got := map[string][]string{}
		for w, r := range results {
			if len(r.digests) > 0 {
				got[w] = r.digests
			}
		}
		if err := updateDigests(o.updateDigests, got); err != nil {
			return err
		}
	}
	if len(run) == 1 {
		res := results[run[0]]
		defs := endToEndDefs
		if o.trace == 1 {
			defs = perLayerDefs()
		}
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
		for _, d := range defs {
			line.Metrics[d.name] = value{res.Metrics[d.name].Value, d.unit}
		}
		if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
			return err
		}
	}
	if !allCorrect {
		return errors.New("outputs failed their checks")
	}
	return nil
}

// runWorkload measures one workload. Untraced, it reports the
// end-to-end metrics: setup_s, the time from starting a process to the
// end of its warm-up, where timing starts, is the median over
// setupSamples processes; the rest come from one measuring process. Traced, it runs
// the workload untraced and then traced with the same seed and op
// count, and reports the per-layer metrics of the traced run.
func runWorkload(o options, w string) (workloadResult, error) {
	args := []string{"-child", "-workload", w, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	res := workloadResult{Correct: true, Metrics: map[string]metric{}}
	add := func(rep childReport) {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		if rep.Violations > 0 {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("%d outputs broke an invariant", rep.Violations))
		}
	}

	var setups []float64
	setupOnly := func(n int) error {
		for i := 0; i < n; i++ {
			c, err := spawn(append(args, "-setup-only")...)
			if err != nil {
				return err
			}
			add(c.rep)
			setups = append(setups, c.setupS)
		}
		return nil
	}
	// Set-up samples come from before and after the measuring process,
	// so their median spans the host's state over the whole run.
	if o.trace == 0 {
		if err := setupOnly(setupSamples / 2); err != nil {
			return res, err
		}
	}
	plain, err := spawn(args...)
	if err != nil {
		return res, err
	}
	add(plain.rep)
	res.digests = plain.rep.Digests
	if o.trace == 1 {
		traced, err := spawn(append(args, "-trace", "1", "-tracedir", o.traceDir, "-ops", strconv.Itoa(plain.rep.Rerun))...)
		if err != nil {
			return res, err
		}
		add(traced.rep)
		res.Metrics = traced.rep.Metrics
		res.spans = traced.rep.Spans
		res.Metrics["bench.trace_overhead"] = metric{
			Value: plain.rep.Metrics["ops_per_s"].Value/traced.rep.Metrics["ops_per_s"].Value - 1, Unit: "ratio"}
	} else {
		res.Metrics = plain.rep.Metrics
		setups = append(setups, plain.setupS)
		if err := setupOnly(setupSamples - len(setups)); err != nil {
			return res, err
		}
		res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups)}
		res.Metrics["peak_rss_mb"] = metric{Value: float64(plain.rssKiB) / 1024, Unit: "MiB"}
	}

	if o.seed == defaultSeed && len(res.digests) > 0 && o.updateDigests == "" {
		n, err := checkDigests(w, res.digests)
		if err != nil {
			res.Correct = false
			res.notes = append(res.notes, err.Error())
		} else {
			res.notes = append(res.notes, fmt.Sprintf("output digests: %d checkpoints match testdata/expected.json", n))
		}
	}
	return res, nil
}

// childRun is one finished workload process.
type childRun struct {
	rep    childReport
	setupS float64 // from starting the process to the end of set-up
	rssKiB int64   // peak resident set size
}

// spawn runs this program as a workload child.
func spawn(args ...string) (childRun, error) {
	var c childRun
	exe, err := os.Executable()
	if err != nil {
		return c, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	started := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return c, fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &c.rep); err != nil {
		return c, fmt.Errorf("child %v: report: %w", args, err)
	}
	c.setupS = float64(c.rep.SetupDone-started.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssKiB = ru.Maxrss
	}
	return c, nil
}

// printResult prints one workload's metrics for a reader.
func printResult(w io.Writer, o options, name string, r workloadResult) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s (seed %d, %d s): %d failed of %d attempted, %s\n",
		name, o.seed, o.seconds, r.Failed, r.Attempted, verdict)
	line := func(name, unit string) {
		m := r.Metrics[name]
		counts := ""
		if m.Samples > 0 {
			counts = fmt.Sprintf("  n=%d", m.Samples)
		} else if m.Ops > 0 {
			counts = fmt.Sprintf("  ops=%d", m.Ops)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s%s\n", name, m.Value, unit, counts)
	}
	if o.trace == 0 {
		for _, d := range endToEndDefs {
			line(d.name, d.unit)
		}
		line("latency_ms.p50", "ms")
	} else {
		printLayers(w, r)
		for _, d := range perLayerDefs() {
			if !strings.HasPrefix(d.name, "layer.") && d.name != "latency_ms.tail" && r.Metrics[d.name].Value != 0 {
				line(d.name, d.unit)
			}
		}
	}
	if tail := r.Metrics["latency_ms.tail"]; tail.Value > 0 {
		fmt.Fprintf(w, "  %-34s %14.6g %-8s  p%g of n=%d\n", "latency_ms.tail", tail.Value, "ms",
			r.Metrics["latency_ms.tail_permille"].Value/10, tail.Samples)
	}
	if late := r.Metrics["bench.late_ms.p99"].Value; late > 10 {
		fmt.Fprintf(w, "  the generator ran %.1f ms late at p99: open-loop latencies are generator-bound\n", late)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// printLayers prints the host-cost budget, largest layer first, and the
// benchmark-side spans with their self time.
func printLayers(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "  %-16s %9s %12s %12s\n", "layer", "cpu share", "cpu us/op", "allocs/op")
	order := slices.Clone(layers)
	share := func(l string) float64 { return r.Metrics["layer."+l+".cpu_share"].Value }
	slices.SortStableFunc(order, func(a, b string) int {
		switch {
		case share(a) > share(b):
			return -1
		case share(a) < share(b):
			return 1
		}
		return 0
	})
	total := 0.0
	for _, l := range order {
		total += share(l)
		if share(l) == 0 && r.Metrics["layer."+l+".allocs_per_op"].Value == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-16s %8.1f%% %12.1f %12.1f\n", l, 100*share(l),
			r.Metrics["layer."+l+".cpu_us_per_op"].Value, r.Metrics["layer."+l+".allocs_per_op"].Value)
	}
	fmt.Fprintf(w, "  %-16s %8.1f%%\n", "total", 100*total)
	fmt.Fprintf(w, "  %-22s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, s := range r.spans {
		fmt.Fprintf(w, "  %-22s %9d %12.1f %12.1f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
}

// provenance says where and how a result was measured.
type provenance struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

func writeOut(o options, results map[string]workloadResult) error {
	p := provenance{
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	data, err := json.MarshalIndent(outFile{Provenance: p, Workloads: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(data, '\n'), 0o644)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
