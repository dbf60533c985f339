package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// minCompareRuns is the fewest -out files per side -compare accepts.
const minCompareRuns = 10

// spec is the part of BENCHMARK.json -compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// comparison is one (workload, metric) pair of a -compare report.
type comparison struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	won                           float64 // share of pairs the change won; ties count for neither
	worse                         float64 // change median against parent median, positive when worse
	verdict                       string
}

// compareMetric judges one metric by the choosing-metrics rules. The
// change improved if it won at least 9 in 10 pairs and the medians
// differ by more than the parent's quartile spread. Otherwise, where
// that spread is wider than the bound, the metric is unresolved unless
// every change run beats every parent run. Otherwise it is worse when
// its median is worse by more than the bound, and no worse if not.
func compareMetric(parent, change []float64, bound float64, higherBetter bool) comparison {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	var c comparison
	c.parentMed, c.changeMed = median(parent), median(change)
	c.parentQ1, c.parentQ3 = quartiles(parent)
	c.changeQ1, c.changeQ3 = quartiles(change)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if pairs > 0 {
		c.won = float64(wins) / float64(pairs)
	}
	spread := c.parentQ3 - c.parentQ1
	if c.parentMed != 0 {
		c.worse = (c.changeMed - c.parentMed) / c.parentMed
		if higherBetter {
			c.worse = -c.worse
		}
	}
	allBetter := len(change) > 0 && len(parent) > 0
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case c.won >= 0.9 && better(c.changeMed, c.parentMed) && abs(c.changeMed-c.parentMed) > spread:
		c.verdict = "improved"
	case c.parentMed != 0 && spread/abs(c.parentMed) > bound:
		c.verdict = "unresolved"
		if allBetter {
			c.verdict = "no worse"
		}
	case c.worse > bound:
		c.verdict = "worse"
	default:
		c.verdict = "no worse"
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// readOuts reads every -out file in dir, in file-name order; the i-th
// files of the two directories form the i-th pair.
func readOuts(dir string) ([]outFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var outs []outFile
	for _, n := range names {
		data, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		var o outFile
		if err := json.Unmarshal(data, &o); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		outs = append(outs, o)
	}
	if len(outs) < minCompareRuns {
		return nil, fmt.Errorf("%s holds %d -out files, want at least %d", dir, len(outs), minCompareRuns)
	}
	return outs, nil
}

// compareDirs prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the share of pairs the change won and a
// verdict against the bound in BENCHMARK.json. It refuses runs measured
// on different CPU counts or Go versions.
func compareDirs(w io.Writer, specPath, parentDir, changeDir string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readOuts(parentDir)
	if err != nil {
		return err
	}
	change, err := readOuts(changeDir)
	if err != nil {
		return err
	}
	ref := parent[0].Provenance
	for _, o := range append(slices.Clone(parent), change...) {
		p := o.Provenance
		if p.NumCPU != ref.NumCPU || p.GOMAXPROCS != ref.GOMAXPROCS || p.GoVersion != ref.GoVersion {
			return fmt.Errorf("runs differ in host: NumCPU %d/%d, GOMAXPROCS %d/%d, Go %s/%s",
				ref.NumCPU, p.NumCPU, ref.GOMAXPROCS, p.GOMAXPROCS, ref.GoVersion, p.GoVersion)
		}
	}
	fmt.Fprintf(w, "%d parent and %d change runs; NumCPU %d, GOMAXPROCS %d, %s\n",
		len(parent), len(change), ref.NumCPU, ref.GOMAXPROCS, ref.GoVersion)
	fmt.Fprintf(w, "%-12s %-20s %28s %28s %8s %6s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "change", "won", "verdict")
	values := func(outs []outFile, wl, m string) []float64 {
		var v []float64
		for _, o := range outs {
			if r, ok := o.Workloads[wl]; ok {
				if x, ok := r.Metrics[m]; ok {
					v = append(v, x.Value)
				}
			}
		}
		return v
	}
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			pv, cv := values(parent, wl, m.Name), values(change, wl, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			c := compareMetric(pv, cv, m.Bound, m.Better == "higher")
			fmt.Fprintf(w, "%-12s %-20s %28s %28s %+7.1f%% %5.0f%%  %s\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.parentMed, c.parentQ1, c.parentQ3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.changeMed, c.changeQ1, c.changeQ3),
				100*(c.changeMed-c.parentMed)/c.parentMed, 100*c.won, c.verdict)
		}
	}
	return nil
}
