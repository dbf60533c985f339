package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestEngineGoldens pins report bytes that no CLI command prints: the
// per-member delays of the EXT-3 platoon's first run in both delivery
// modes, on the CLI's default platoon seed. The goldens of CLI output
// are diffed by TestConformance in cmd/itsbed. After an intended
// change, replace testdata/platoon_members.golden with the "got" block
// of the failure.
func TestEngineGoldens(t *testing.T) {
	t.Run("platoon_members", func(t *testing.T) {
		var b strings.Builder
		for _, mode := range []PlatoonMode{PlatoonITSG5, PlatoonHybrid} {
			res, err := Platoon(42+3000, 4, mode)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(res.Format())
		}
		want, err := os.ReadFile("testdata/platoon_members.golden")
		if err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(want) {
			t.Fatalf("report drifted from platoon_members.golden:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	})
}
