package experiments

import "testing"

// TestCPMReducesMissRate pins the headline claim of the study: under
// the same seeds, enabling CPM strictly reduces the miss count, never
// introduces a miss the baseline avoided, converts runs into warned
// stops, and warns earlier on every run where both arms warned at all.
func TestCPMReducesMissRate(t *testing.T) {
	res, err := CPMCampaign(CPMOptions{BaseSeed: 1, Runs: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Misses == 0 {
		t.Fatal("baseline arm never missed: the scenario is not exercising the occlusion hazard")
	}
	if res.CPM.Misses >= res.Baseline.Misses {
		t.Fatalf("CPM arm missed %d times vs baseline %d: no strict reduction",
			res.CPM.Misses, res.Baseline.Misses)
	}
	if res.CPM.WarnedStops <= res.Baseline.WarnedStops {
		t.Fatalf("CPM warned-stops %d vs baseline %d: early warning bought nothing",
			res.CPM.WarnedStops, res.Baseline.WarnedStops)
	}
	for i, row := range res.Rows {
		if row.CPM.Miss && !row.Baseline.Miss {
			t.Fatalf("run %d (seed %d): CPM introduced a miss the baseline avoided", i, row.Seed)
		}
		if row.Baseline.Warned && row.CPM.Warned &&
			row.CPM.WarnLatencyMS >= row.Baseline.WarnLatencyMS {
			t.Fatalf("run %d (seed %d): CPM warn latency %.0f ms not earlier than baseline %.0f ms",
				i, row.Seed, row.CPM.WarnLatencyMS, row.Baseline.WarnLatencyMS)
		}
		if row.CPM.ObjectsFused == 0 {
			t.Fatalf("run %d (seed %d): CPM arm fused no remote objects", i, row.Seed)
		}
		if row.Baseline.CPMsDelivered != 0 || row.Baseline.ObjectsFused != 0 {
			t.Fatalf("run %d (seed %d): baseline arm received CPM traffic (%d delivered, %d fused)",
				i, row.Seed, row.Baseline.CPMsDelivered, row.Baseline.ObjectsFused)
		}
	}
	if res.CPM.WarnLatency.Mean >= res.Baseline.WarnLatency.Mean {
		t.Fatalf("mean warn latency: CPM %.0f ms vs baseline %.0f ms",
			res.CPM.WarnLatency.Mean, res.Baseline.WarnLatency.Mean)
	}
}
