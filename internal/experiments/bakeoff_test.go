package experiments

import (
	"os"
	"testing"
)

// bakeoffOpt is the bakeoff_smoke conformance shape (itsbed bakeoff
// -seed 42 -runs 5 -vision=false).
func bakeoffOpt(workers int) ScenarioOptions {
	return ScenarioOptions{BaseSeed: 42, Runs: 5, Workers: workers, UseVision: false}
}

// TestBakeoffDeterministicAcrossWorkers pins the acceptance criterion:
// the full BAKEOFF-1 report — three backends, each its own seeded
// campaign — is byte-identical at 8 workers and serial execution.
func TestBakeoffDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("bakeoff campaign in -short mode")
	}
	res8, err := Bakeoff(bakeoffOpt(8))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Bakeoff(bakeoffOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	if got8, got1 := res8.Format(), res1.Format(); got8 != got1 {
		t.Fatalf("bakeoff drifted across workers:\n--- 8 workers ---\n%s--- 1 worker ---\n%s", got8, got1)
	}
}

// TestBakeoffGoldenReport pins the exact report bytes of the
// bakeoff_smoke campaign against the committed golden; regenerate with
//
//	go test ./cmd/itsbed -run TestConformance -update
func TestBakeoffGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("bakeoff campaign in -short mode")
	}
	want, err := os.ReadFile("testdata/bakeoff_smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Bakeoff(bakeoffOpt(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Format(); got != string(want) {
		t.Fatalf("bakeoff report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
