package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the engine goldens in testdata")

// TestEngineGoldens pins the exact report bytes of the engines no CI
// smoke covers: the EXT-3 platoon study in both delivery modes (plus
// the per-member delays of its first run), the EXT-4 blind-corner
// comparison and the EXT-6 platoon-ACC sweep, each at n=3 on the
// CLI's default seeds (itsbed platoon|baseline|platoon-acc -n 3).
// Any change to how these engines assemble their stations, radio or
// camera→hazard edge shows up here as a diff; regenerate with
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
