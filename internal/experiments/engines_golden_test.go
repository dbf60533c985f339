package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"itsbed/internal/core"
	"itsbed/internal/faults"
	"itsbed/internal/tracing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the engine goldens in testdata")

// TestEngineGoldens pins the exact report bytes of the engines no CI
// smoke covers: the EXT-3 platoon study in both delivery modes (plus
// the per-member delays of its first run), the EXT-4 blind-corner
// comparison and the EXT-6 platoon-ACC sweep, each at n=3 on the
// CLI's default seeds (itsbed platoon|baseline|platoon-acc -n 3).
// Any change to how these engines assemble their stations, radio or
// camera→hazard edge shows up here as a diff.
//
// It also pins the instrumented output: what
//
//	itsbed -seed 42 -metrics -radio R table2 -runs 3 -vision=false -spans
//	itsbed -seed 42 -metrics resilience -faults chaos -runs 3 -vision=false
//
// print (the delay budget, every metric family and the chain
// waterfalls, at -workers 1 and 2 alike), and the SHA-256 of the
// its-g5 run's full Chrome trace export. Regenerate with
//
//	go test ./internal/experiments -run TestEngineGoldens -update
func TestEngineGoldens(t *testing.T) {
	const seed = 42
	modes := []PlatoonMode{PlatoonITSG5, PlatoonHybrid}
	cases := []struct {
		golden string
		report func() (string, error)
	}{
		{"platoon_n3.golden", func() (string, error) {
			var b strings.Builder
			for _, mode := range modes {
				res, err := PlatoonStudy(seed+3000, 3, 4, mode)
				if err != nil {
					return "", err
				}
				b.WriteString(res.Format())
			}
			return b.String(), nil
		}},
		{"platoon_members.golden", func() (string, error) {
			var b strings.Builder
			for _, mode := range modes {
				res, err := Platoon(seed+3000, 4, mode)
				if err != nil {
					return "", err
				}
				b.WriteString(res.Format())
			}
			return b.String(), nil
		}},
		{"blindcorner_n3.golden", func() (string, error) {
			res, err := BlindCorner(seed+4000, 3)
			return res.Format(), err
		}},
		{"platoonacc_n3.golden", func() (string, error) {
			rows, err := PlatoonACC(seed+9000, 3, nil, 4)
			return FormatPlatoonACC(rows), err
		}},
		{"table2_metrics_its-g5.golden", func() (string, error) { return instrumentedTableII(seed, core.RadioITSG5) }},
		{"table2_metrics_cv2x-pc5.golden", func() (string, error) { return instrumentedTableII(seed, core.RadioCV2XPC5) }},
		{"table2_metrics_cv2x-uu.golden", func() (string, error) { return instrumentedTableII(seed, core.RadioCV2XUu) }},
		{"table2_chrome_its-g5.sha256", func() (string, error) {
			res, err := TableII(ScenarioOptions{BaseSeed: seed, Runs: 3, Workers: 2, Trace: true})
			return fmt.Sprintf("%x\n", sha256.Sum256(tracing.ChromeTrace(res.Traces))), err
		}},
		{"resilience_metrics_chaos.golden", func() (string, error) {
			plan, ok := faults.BuiltinPlan("chaos")
			if !ok {
				return "", fmt.Errorf("no builtin chaos plan")
			}
			res, err := Resilience(ResilienceOptions{BaseSeed: seed, Runs: 3, Workers: 2, Plan: plan})
			return res.Format() + "\n" + res.Metrics.Format(), err
		}},
	}
	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.golden, ".golden"), func(t *testing.T) {
			got, err := c.report()
			if err != nil {
				t.Fatal(err)
			}
			path := "testdata/" + c.golden
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", c.golden, got, want)
			}
		})
	}
}

// instrumentedTableII renders what the CLI prints for table2 with
// -metrics and -spans on the given radio, failing unless -workers 1
// and 2 print the same bytes.
func instrumentedTableII(seed int64, radio core.RadioKind) (string, error) {
	var reports [2]string
	for i, workers := range []int{1, 2} {
		res, err := TableII(ScenarioOptions{BaseSeed: seed, Runs: 3, Workers: workers, Radio: radio, Trace: true})
		if err != nil {
			return "", err
		}
		chains := res.Traces.FilterTraces(func(root tracing.SpanRecord) bool { return root.Name == "denm.chain" })
		reports[i] = res.Format() + "\n" + res.LayerBudget().Format() + "\n" + res.Metrics.Format() + "\n" + tracing.Waterfall(chains)
	}
	if reports[0] != reports[1] {
		return "", fmt.Errorf("%s: -workers 1 and 2 print different reports", radio)
	}
	return reports[0], nil
}
