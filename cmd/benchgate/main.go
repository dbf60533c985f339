// Command benchgate compares two `go test -bench` outputs and enforces
// the repository's benchmark regression policy: on every guarded
// benchmark, the median time/op may not regress by more than the
// threshold (default 20%), and the median allocs/op may not regress at
// all. It is a benchstat-style gate with an exit code, so CI can fail
// a pull request on a hot-path regression instead of archiving the
// drift in an artifact nobody reads.
//
// Usage:
//
//	benchgate -baseline BENCH_baseline.txt -current BENCH_now.txt \
//	          -guard 'BenchmarkMedium|BenchmarkDENM' [-max-time-regress 0.20]
//
// Both files hold standard testing output (any -count; repeated runs
// of one benchmark are reduced to the median). Benchmarks present in
// only one file are reported but never fail the gate: adding a
// benchmark must not break CI, and deleting one is reviewed in the
// diff, not here. The two files must come from the same GOMAXPROCS
// (the -N name suffix go test appends when N > 1, none for 1):
// benchgate refuses to compare runs at different CPU counts, because a
// benchmark that runs goroutines in parallel measures something else
// at another count. Record both with `go test -cpu 1`.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// sample is one benchmark line's measurements.
type sample struct {
	nsOp     float64
	allocsOp float64
	// hasAllocs records whether the line carried -benchmem columns.
	hasAllocs bool
}

// series collects all samples of one benchmark name.
type series struct {
	ns     []float64
	allocs []float64
}

var lineRE = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

// parseFile reads one benchmark output and returns its series by name
// and the GOMAXPROCS every line of it ran at.
func parseFile(path string) (map[string]*series, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	out := map[string]*series{}
	fileProcs := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, procs, s, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if fileProcs == 0 {
			fileProcs = procs
		} else if procs != fileProcs {
			return nil, 0, fmt.Errorf("%s mixes GOMAXPROCS %d and %d (%s)", path, fileProcs, procs, name)
		}
		sr := out[name]
		if sr == nil {
			sr = &series{}
			out[name] = sr
		}
		sr.ns = append(sr.ns, s.nsOp)
		if s.hasAllocs {
			sr.allocs = append(sr.allocs, s.allocsOp)
		}
	}
	return out, fileProcs, sc.Err()
}

// parseLine splits one benchmark result line into the benchmark name
// without its GOMAXPROCS suffix, that GOMAXPROCS (1 when there is no
// suffix) and the measurements.
func parseLine(line string) (string, int, sample, bool) {
	m := lineRE.FindStringSubmatch(line)
	if m == nil {
		return "", 0, sample{}, false
	}
	procs := 1
	if m[2] != "" {
		n, err := strconv.Atoi(m[2])
		if err != nil {
			return "", 0, sample{}, false
		}
		procs = n
	}
	ns, err := strconv.ParseFloat(m[3], 64)
	if err != nil {
		return "", 0, sample{}, false
	}
	s := sample{nsOp: ns}
	if m[5] != "" {
		allocs, err := strconv.ParseFloat(m[5], 64)
		if err != nil {
			return "", 0, sample{}, false
		}
		s.allocsOp = allocs
		s.hasAllocs = true
	}
	return m[1], procs, s, true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the gate: it returns 0 when every guarded benchmark is within
// policy, 1 when one regressed, and 2 on bad usage or input, including
// files recorded at different GOMAXPROCS.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.txt", "baseline benchmark output")
	currentPath := fs.String("current", "", "current benchmark output (required)")
	guard := fs.String("guard", "Benchmark", "regexp of guarded benchmark names")
	maxTime := fs.Float64("max-time-regress", 0.20, "maximum fractional time/op regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *currentPath == "" {
		fmt.Fprintln(stderr, "benchgate: -current is required")
		return 2
	}
	guardRE, err := regexp.Compile(*guard)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: bad -guard: %v\n", err)
		return 2
	}
	base, baseProcs, err := parseFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	cur, curProcs, err := parseFile(*currentPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	if len(base) == 0 || len(cur) == 0 {
		fmt.Fprintln(stderr, "benchgate: no benchmark lines parsed")
		return 2
	}
	if baseProcs != curProcs {
		fmt.Fprintf(stderr, "benchgate: baseline ran at GOMAXPROCS=%d, current at GOMAXPROCS=%d; record both with go test -cpu 1\n",
			baseProcs, curProcs)
		return 2
	}

	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	fmt.Fprintf(stdout, "%-34s %14s %14s %8s\n", "benchmark", "base ns/op", "cur ns/op", "Δ")
	for _, name := range names {
		c := cur[name]
		b, inBase := base[name]
		curNS := median(c.ns)
		if !inBase {
			fmt.Fprintf(stdout, "%-34s %14s %14.1f %8s\n", name, "(new)", curNS, "-")
			continue
		}
		baseNS := median(b.ns)
		delta := curNS/baseNS - 1
		status := ""
		guarded := guardRE.MatchString(name)
		if guarded && delta > *maxTime {
			status = fmt.Sprintf("  FAIL time/op regressed %.1f%% (limit %.0f%%)", delta*100, *maxTime*100)
			failed = true
		}
		if guarded && len(b.allocs) > 0 && len(c.allocs) > 0 {
			ba, ca := median(b.allocs), median(c.allocs)
			if ca > ba {
				status += fmt.Sprintf("  FAIL allocs/op regressed %.0f → %.0f", ba, ca)
				failed = true
			}
		}
		fmt.Fprintf(stdout, "%-34s %14.1f %14.1f %+7.1f%%%s\n", name, baseNS, curNS, delta*100, status)
	}
	for name := range base {
		if _, ok := cur[name]; !ok && guardRE.MatchString(name) {
			fmt.Fprintf(stdout, "%-34s missing from current run (not failing; remove from baseline if deleted)\n", name)
		}
	}
	if failed {
		fmt.Fprintln(stdout, "benchgate: FAIL — guarded benchmark regressed beyond policy")
		return 1
	}
	fmt.Fprintln(stdout, "benchgate: ok")
	return 0
}
