package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func series(start, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = start + step*float64(i)
	}
	return xs
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		name           string
		parent, change []float64
		bound          float64
		higherBetter   bool
		want           string
	}{
		// Wins every pair by far more than the parent's spread.
		{"faster", series(100, 1, 10), series(80, 1, 10), 0.1, false, "improved"},
		{"more throughput", series(100, 1, 10), series(130, 1, 10), 0.1, true, "improved"},
		// 20% slower with a tight spread: past the 10% bound.
		{"slower", series(100, 1, 10), series(120, 1, 10), 0.1, false, "worse"},
		// 3% slower: within the bound.
		{"within bound", series(100, 1, 10), series(103, 1, 10), 0.1, false, "no worse"},
		// The parent's spread (about 38%) is wider than the bound and
		// the runs interleave: the data cannot tell.
		{"too noisy", series(100, 10, 10), series(105, 10, 10), 0.1, false, "unresolved"},
		// Same spread, but every change run beats every parent run, by
		// less than the spread: not a gain, but no regression either.
		{"noisy but all better", series(100, 10, 10), series(99, -0.5, 10), 0.1, false, "no worse"},
	} {
		got := compareMetric(c.parent, c.change, c.bound, c.higherBetter)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %q (won %.2f, worse %+.3f), want %q", c.name, got.verdict, got.won, got.worse, c.want)
		}
	}
}

func TestCompareRefusesMixedHosts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"ops_per_s","unit":"op/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, cpus int) string {
		d := filepath.Join(dir, side)
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < minCompareRuns; i++ {
			o := outFile{
				Provenance: provenance{NumCPU: cpus, GOMAXPROCS: cpus, GoVersion: "go1.x"},
				Workloads: map[string]workloadResult{"table2": {Correct: true, Attempted: 1,
					Metrics: map[string]metric{"ops_per_s": {Value: 100 + float64(i), Unit: "op/s"}}}},
			}
			data, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("run%02d.json", i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	parent, change, other := write("parent", 2), write("change", 2), write("other", 8)
	var out strings.Builder
	if err := compareDirs(&out, spec, parent, change); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "table2") || !strings.Contains(out.String(), "no worse") {
		t.Errorf("report lacks the table2 verdict:\n%s", out.String())
	}
	if err := compareDirs(&out, spec, parent, other); err == nil {
		t.Error("compared runs from a 2-CPU and an 8-CPU host")
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(listed), len(defs))
		}
		for i := 0; i < min(len(listed), len(defs)); i++ {
			if listed[i].Name != defs[i].name || listed[i].Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program has %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndDefs)
	same("per_layer", b.PerLayer, perLayerDefs())
}
