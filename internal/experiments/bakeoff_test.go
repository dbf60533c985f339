package experiments

import (
	"os"
	"testing"
)

// bakeoffOpt is the CI bakeoff-smoke shape (itsbed bakeoff -seed 42
// -runs 5 -vision=false).
func bakeoffOpt(workers int) BakeoffOptions {
	return BakeoffOptions{BaseSeed: 42, Runs: 5, Workers: workers, UseVision: false}
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

// TestBakeoffGoldenReport pins the exact report bytes of the CI
// bakeoff-smoke campaign against the committed golden; regenerate with
//
//	go run ./cmd/itsbed bakeoff -seed 42 -runs 5 -workers 8 \
//	    -vision=false > internal/experiments/testdata/bakeoff_smoke.golden
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

// TestTableIIGoldenITSG5Unchanged pins the pre-C-V2X regression
// criterion: an ITS-G5-only Table II run is byte-identical to the
// golden captured before the C-V2X backends existed — the sidelink's
// RNG streams are created lazily and must never perturb runs that
// don't use them. Regenerate (only with an intentional change to the
// ITS-G5 chain) with
//
//	go run ./cmd/itsbed table2 -runs 3 -workers 4 \
//	    -vision=false > internal/experiments/testdata/tableii_smoke.golden
func TestTableIIGoldenITSG5Unchanged(t *testing.T) {
	want, err := os.ReadFile("testdata/tableii_smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	res, err := TableII(ScenarioOptions{BaseSeed: 42, Runs: 3, Workers: 4, UseVision: false})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Format(); got != string(want) {
		t.Fatalf("ITS-G5 Table II drifted from the pre-C-V2X golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
