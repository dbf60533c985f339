package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"itsbed/internal/core"
)

var update = flag.Bool("update", false, "rewrite the goldens the conformance rows diff")

// The CLI drives the same experiment functions the benches use; these
// tests exercise argument parsing and the thin printing layer with
// minimal run counts.

func TestRunTable1(t *testing.T) {
	if err := run([]string{"table1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunTable2Fast(t *testing.T) {
	if err := run([]string{"table2", "-runs", "2", "-vision=false"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig7(t *testing.T) {
	if err := run([]string{"fig7"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownCommand(t *testing.T) {
	if err := run([]string{"bogus"}, io.Discard); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"table2", "-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunFlagsOnBothSidesOfCommand(t *testing.T) {
	for _, args := range [][]string{
		{"-seed", "1", "table1", "-definitely-not-a-flag"},
		{"-seed", "1", "table1", "extra"},
		{"table1", "-seed", "1", "extra"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("%v: accepted", args)
		}
	}
	var out strings.Builder
	if err := run([]string{"-workers", "1", "city", "-stations", "10", "-duration", "100ms"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "100ms per run") || !strings.Contains(got, "\n        10 ") {
		t.Fatalf("flags after the command were dropped:\n%s", got)
	}
}

func TestRunRadioRejectedWhereIgnored(t *testing.T) {
	for _, cmd := range []string{"table1", "cpm", "city", "all"} {
		err := run([]string{"-radio", "cv2x-pc5", cmd}, io.Discard)
		if err == nil {
			t.Fatalf("%s: -radio cv2x-pc5 accepted", cmd)
		}
		for _, want := range []string{cmd, "table2", "table3", "fig10", "fig11", "resilience"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %q does not name %s", cmd, err, want)
			}
		}
	}
	if err := run([]string{"table1", "-radio", "its-g5"}, io.Discard); err != nil {
		t.Fatalf("default radio rejected: %v", err)
	}
}

func TestRunInstrumentationFlagsRejectedWhereIgnored(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	cases := []struct {
		args []string
		cmd  string
		want []string
	}{
		{[]string{"fig11", "-runs", "1", "-vision=false", "-trace-out", out}, "fig11", []string{"-trace-out", "table2, all"}},
		{[]string{"-metrics", "fig11", "-runs", "1", "-vision=false"}, "fig11", []string{"-metrics", "table2, resilience, all"}},
		{[]string{"table2", "-runs", "1", "-vision=false", "-blackbox", out}, "table2", []string{"-blackbox", "resilience"}},
		{[]string{"all", "-blackbox", out}, "all", []string{"-blackbox", "resilience"}},
		{[]string{"resilience", "-runs", "1", "-vision=false", "-spans"}, "resilience", []string{"-spans", "table2, all"}},
		{[]string{"table3", "-runs", "1", "-vision=false", "-metrics"}, "table3", []string{"-metrics"}},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard)
		if err == nil {
			t.Fatalf("%v: accepted", c.args)
		}
		for _, want := range append(c.want, c.cmd) {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%v: error %q does not name %s", c.args, err, want)
			}
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%v: wrote %s", c.args, out)
		}
	}
}

// TestFlagRuleFollowsRegistry sets every flag away from its default on
// every command: parsing succeeds exactly where the registry lists the
// flag, and otherwise fails naming the command and, in registry order,
// the commands that read it.
func TestFlagRuleFollowsRegistry(t *testing.T) {
	sample := map[string]string{
		"runs": "3", "vision": "false", "metrics": "true", "trace-out": "t.json",
		"spans": "true", "faults": "blackout", "radio": "cv2x-pc5", "stations": "10", "rsus": "2",
		"duration": "1s", "dcc": "false", "blackbox": "dumps", "progress": "true",
		"soak-stations": "5", "rps": "9", "thresholds": "x.json",
	}
	flagSet(new(params)).VisitAll(func(f *flag.Flag) {
		if f.Name == "seed" || f.Name == "workers" {
			return
		}
		v, ok := sample[f.Name]
		if !ok {
			t.Fatalf("no sample value for -%s", f.Name)
		}
		takers := readers(f.Name)
		if len(takers) == 0 {
			t.Errorf("no command reads -%s", f.Name)
		}
		for _, name := range names() {
			_, _, err := parse([]string{name, "-" + f.Name + "=" + v})
			switch {
			case slices.Contains(takers, name) && err != nil:
				t.Errorf("%s -%s=%s: %v", name, f.Name, v, err)
			case !slices.Contains(takers, name) && err == nil:
				t.Errorf("%s -%s=%s: accepted", name, f.Name, v)
			case err != nil && err.Error() != fmt.Sprintf("%s ignores -%s %s; only %s take it", name, f.Name, v, strings.Join(takers, ", ")):
				t.Errorf("%s -%s=%s: error %q", name, f.Name, v, err)
			}
		}
	})
}

// goldenDir holds the experiment goldens the conformance rows diff.
const goldenDir = "../../internal/experiments/testdata"

// conformance lists the CLI runs TestConformance checks. A row's
// goldens map an output of the run ("stdout", or a file it writes under
// -trace-out or -blackbox) to the golden it must equal. "%s" in a
// golden's name stands for the radio backend; a golden without it pins
// the its-g5 run only. A ".sha256" golden holds the output's SHA-256.
var conformance = []struct {
	name    string
	args    []string
	goldens map[string]string
}{
	{"table1", []string{"table1"}, map[string]string{"stdout": "table1.golden"}},
	{"tableii_smoke", []string{"table2", "-runs", "3", "-vision=false"}, map[string]string{"stdout": "tableii_smoke.golden"}},
	{"table2_metrics", []string{"-seed", "42", "-metrics", "table2", "-runs", "3", "-vision=false", "-spans"},
		map[string]string{"stdout": "table2_metrics_%s.golden"}},
	{"table2_vision", []string{"table2", "-runs", "2"}, map[string]string{"stdout": "table2_vision_%s.golden"}},
	{"table2_chrome", []string{"table2", "-runs", "3", "-vision=false", "-trace-out", "trace.json", "-spans"},
		map[string]string{"trace.json": "table2_chrome_its-g5.sha256"}},
	{"table3", []string{"table3", "-runs", "2", "-vision=false"}, map[string]string{"stdout": "table3.golden"}},
	{"fig7", []string{"fig7"}, map[string]string{"stdout": "fig7.golden"}},
	{"fig10", []string{"fig10", "-runs", "2", "-vision=false"}, map[string]string{"stdout": "fig10.golden"}},
	{"fig11", []string{"fig11", "-runs", "2", "-vision=false"}, map[string]string{"stdout": "fig11.golden"}},
	{"cdf", []string{"cdf", "-runs", "4"}, map[string]string{"stdout": "cdf.golden"}},
	{"radios", []string{"radios", "-runs", "4"}, map[string]string{"stdout": "radios.golden"}},
	{"platoon_n3", []string{"platoon", "-runs", "3"}, map[string]string{"stdout": "platoon_n3.golden"}},
	{"blindcorner_n3", []string{"baseline", "-runs", "3"}, map[string]string{"stdout": "blindcorner_n3.golden"}},
	{"poll-sweep", []string{"poll-sweep", "-runs", "2"}, map[string]string{"stdout": "poll-sweep.golden"}},
	{"fps-sweep", []string{"fps-sweep", "-runs", "2"}, map[string]string{"stdout": "fps-sweep.golden"}},
	{"load-sweep", []string{"load-sweep", "-runs", "2"}, map[string]string{"stdout": "load-sweep.golden"}},
	{"obstruction", []string{"obstruction", "-runs", "2"}, map[string]string{"stdout": "obstruction.golden"}},
	{"platoonacc_n3", []string{"platoon-acc", "-runs", "3"}, map[string]string{"stdout": "platoonacc_n3.golden"}},
	{"ntp-sweep", []string{"ntp-sweep", "-runs", "2"}, map[string]string{"stdout": "ntp-sweep.golden"}},
	{"chaos_smoke", []string{"resilience", "-faults", "blackout", "-seed", "42", "-runs", "3", "-vision=false"},
		map[string]string{"stdout": "chaos_smoke.golden"}},
	{"flight_smoke", []string{"resilience", "-faults", "blackout", "-runs", "3", "-vision=false", "-progress", "-blackbox", "dumps"},
		map[string]string{"stdout": "chaos_smoke.golden", "dumps/run01_failsafe-stop.flight.txt": "flight_smoke.golden"}},
	{"resilience_metrics_chaos", []string{"-seed", "42", "-metrics", "resilience", "-faults", "chaos", "-runs", "3", "-vision=false"},
		map[string]string{"stdout": "resilience_metrics_chaos.golden"}},
	{"chaos_seed7", []string{"resilience", "-faults", "chaos", "-seed", "7", "-runs", "3", "-vision=false"}, nil},
	{"scale_smoke", []string{"city", "-stations", "300,1000", "-duration", "1s", "-seed", "42"},
		map[string]string{"stdout": "scale_smoke.golden"}},
	{"cpm_smoke", []string{"cpm", "-seed", "42", "-runs", "3"}, map[string]string{"stdout": "cpm_smoke.golden"}},
	{"cpm_split_flags", []string{"-seed", "42", "cpm", "-runs", "3"}, map[string]string{"stdout": "cpm_smoke.golden"}},
	{"bakeoff_smoke", []string{"bakeoff", "-seed", "42", "-runs", "5", "-vision=false"}, map[string]string{"stdout": "bakeoff_smoke.golden"}},
	{"soak", []string{"soak", "-soak-stations", "20", "-duration", "200ms",
		"-thresholds", "../../internal/loadgen/testdata/soak_thresholds.json"}, nil},
}

// TestConformance runs every conformance row at -workers 1 and 8, on
// every radio backend when its command reads -radio, and requires the
// same stdout, -trace-out file and -blackbox dump tree from both; it
// then diffs the row's goldens and checks every trace file holds a
// denm.chain event. The soak report measures the host's wall clock, so
// the soak row requires only that both runs pass its thresholds.
// Regenerate the goldens with
//
//	go test ./cmd/itsbed -run TestConformance -update
func TestConformance(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range conformance {
		cmd, _, err := parse(row.args)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		covered[cmd] = true
		radios := []core.RadioKind{core.RadioITSG5}
		if reads(cmd, "radio") {
			radios = core.RadioKinds()
		}
		for _, radio := range radios {
			name := row.name
			if len(radios) > 1 {
				name += "/" + string(radio)
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				args := slices.Clone(row.args)
				for i := 1; i < len(args); i++ {
					if args[i-1] == "-trace-out" || args[i-1] == "-blackbox" {
						args[i] = filepath.Join(dir, args[i])
					}
				}
				if len(radios) > 1 {
					args = append(args, "-radio", string(radio))
				}
				serial := outputs(t, dir, append(args, "-workers", "1"))
				parallel := outputs(t, dir, append(args, "-workers", "8"))
				if cmd != "soak" {
					for _, k := range sortedKeys(serial, parallel) {
						if !bytes.Equal(serial[k], parallel[k]) {
							t.Errorf("%s differs between -workers 1 and 8:\n--- 1 ---\n%s--- 8 ---\n%s", k, serial[k], parallel[k])
						}
					}
				}
				for out, golden := range row.goldens {
					if !strings.Contains(golden, "%s") && radio != core.RadioITSG5 {
						continue
					}
					if strings.Contains(golden, "%s") {
						golden = fmt.Sprintf(golden, radio)
					}
					checkGolden(t, filepath.Join(goldenDir, golden), serial[out])
				}
				for i, a := range row.args {
					if a == "-trace-out" {
						checkTrace(t, serial[row.args[i+1]])
					}
				}
			})
		}
	}
	for _, c := range commands {
		if !covered[c.name] {
			t.Errorf("command %s has no conformance row", c.name)
		}
	}
}

// outputs runs the CLI with args and returns its stdout ("stdout") and
// every file it wrote under dir, keyed by slash path; it empties dir
// afterwards so the next run writes to the same paths.
func outputs(t *testing.T, dir string, args []string) map[string][]byte {
	t.Helper()
	var stdout bytes.Buffer
	if err := run(args, &stdout); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	out := map[string][]byte{"stdout": stdout.Bytes()}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func sortedKeys(a, b map[string][]byte) []string {
	var keys []string
	for _, m := range []map[string][]byte{a, b} {
		for k := range m {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

// checkGolden diffs got (or, for a .sha256 golden, its SHA-256)
// against the golden at path, rewriting the golden under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: the run wrote no output to diff", path)
	}
	if strings.HasSuffix(path, ".sha256") {
		got = []byte(fmt.Sprintf("%x\n", sha256.Sum256(got)))
	}
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", filepath.Base(path), got, want)
	}
}

// checkTrace requires a Chrome trace-event file that parses as JSON
// and holds a denm.chain event.
func checkTrace(t *testing.T, data []byte) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file: %v", err)
	}
	for _, e := range doc.TraceEvents {
		if e.Name == "denm.chain" {
			return
		}
	}
	t.Errorf("trace file holds %d events and no denm.chain", len(doc.TraceEvents))
}
