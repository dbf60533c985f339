package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLineGOMAXPROCSSuffix(t *testing.T) {
	for _, tc := range []struct {
		line      string
		name      string
		procs     int
		ns        float64
		allocs    float64
		hasAllocs bool
	}{
		{"BenchmarkDENMEncode       \t 4121398\t       274.4 ns/op\t      48 B/op\t       1 allocs/op",
			"BenchmarkDENMEncode", 1, 274.4, 1, true},
		{"BenchmarkDENMEncode-4     \t 4121398\t       274.4 ns/op\t      48 B/op\t       1 allocs/op",
			"BenchmarkDENMEncode", 4, 274.4, 1, true},
		{"BenchmarkCampaign1k/serial#01-16   \t 100\t 1500 ns/op",
			"BenchmarkCampaign1k/serial#01", 16, 1500, 0, false},
		{"BenchmarkTableIIAttempt   \t     354\t   3445939 ns/op\t  616835 B/op\t    4580 allocs/op",
			"BenchmarkTableIIAttempt", 1, 3445939, 4580, true},
	} {
		name, procs, s, ok := parseLine(tc.line)
		if !ok {
			t.Fatalf("%q: not parsed", tc.line)
		}
		if name != tc.name || procs != tc.procs || s.nsOp != tc.ns || s.allocsOp != tc.allocs || s.hasAllocs != tc.hasAllocs {
			t.Errorf("%q: got %s procs=%d %+v, want %s procs=%d ns=%g allocs=%g/%v",
				tc.line, name, procs, s, tc.name, tc.procs, tc.ns, tc.allocs, tc.hasAllocs)
		}
	}
	for _, line := range []string{"goos: linux", "PASS", "ok  \titsbed/internal/perf\t12.3s", ""} {
		if _, _, _, ok := parseLine(line); ok {
			t.Errorf("%q parsed as a benchmark line", line)
		}
	}
}

// writeBench writes a benchmark output file with one line per
// "name ns allocs" triple.
func writeBench(t *testing.T, lines ...string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: itsbed/internal/perf\n")
	for _, l := range lines {
		f := strings.Fields(l)
		b.WriteString(f[0] + " \t 100\t " + f[1] + " ns/op\t 64 B/op\t " + f[2] + " allocs/op\n")
	}
	b.WriteString("PASS\n")
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func gate(t *testing.T, base, cur string, extra ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(append([]string{"-baseline", base, "-current", cur}, extra...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestGateRefusesGOMAXPROCSMismatch(t *testing.T) {
	base := writeBench(t, "BenchmarkX 1000 10", "BenchmarkY 500 2")
	cur := writeBench(t, "BenchmarkX-4 1000 10", "BenchmarkY-4 500 2")
	code, _, stderr := gate(t, base, cur)
	if code != 2 || !strings.Contains(stderr, "GOMAXPROCS=1") || !strings.Contains(stderr, "GOMAXPROCS=4") {
		t.Fatalf("1-CPU baseline vs 4-CPU run: exit %d, stderr %q; want exit 2 naming both counts", code, stderr)
	}
	// The same suffix on both sides compares normally.
	if code, stdout, _ := gate(t, cur, cur); code != 0 || !strings.Contains(stdout, "benchgate: ok") {
		t.Fatalf("4-CPU vs 4-CPU: exit %d, stdout %q", code, stdout)
	}
}

func TestGateRefusesMixedGOMAXPROCSInOneFile(t *testing.T) {
	mixed := writeBench(t, "BenchmarkX 1000 10", "BenchmarkY-2 500 2")
	if code, _, stderr := gate(t, mixed, mixed); code != 2 || !strings.Contains(stderr, "mixes GOMAXPROCS") {
		t.Fatalf("mixed file: exit %d, stderr %q", code, stderr)
	}
}

func TestGateVerdicts(t *testing.T) {
	base := writeBench(t,
		"BenchmarkX 1000 10", "BenchmarkX 1100 10", "BenchmarkX 900 10",
		"BenchmarkUnguarded 1000 10")
	for _, tc := range []struct {
		name string
		cur  []string
		code int
		want string
	}{
		{"within envelope", []string{"BenchmarkX 1150 10"}, 0, "benchgate: ok"},
		{"faster and leaner", []string{"BenchmarkX 500 4"}, 0, "benchgate: ok"},
		{"time regressed", []string{"BenchmarkX 1300 10"}, 1, "FAIL time/op regressed 30.0%"},
		{"allocs regressed", []string{"BenchmarkX 1000 11"}, 1, "FAIL allocs/op regressed 10 → 11"},
		{"median absorbs one outlier", []string{"BenchmarkX 1000 10", "BenchmarkX 5000 99", "BenchmarkX 1000 10"}, 0, "benchgate: ok"},
		{"unguarded regression ignored", []string{"BenchmarkX 1000 10", "BenchmarkUnguarded 9000 90"}, 0, "benchgate: ok"},
		{"new benchmark never fails", []string{"BenchmarkX 1000 10", "BenchmarkNew 9000 90"}, 0, "(new)"},
	} {
		code, stdout, stderr := gate(t, base, writeBench(t, tc.cur...), "-guard", "BenchmarkX|BenchmarkNew")
		if code != tc.code || !strings.Contains(stdout, tc.want) {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d containing %q",
				tc.name, code, stdout, stderr, tc.code, tc.want)
		}
	}
}
