package faults

import (
	"testing"
)

// FuzzFaultPlan drives the JSON fault-plan parser with arbitrary
// bytes. The invariants: parsing never panics, and any accepted plan
// validates, re-marshals, and round-trips back to an identical parse
// (the JSON() output is what campaign reports embed, so it must stay
// loadable). Run continuously in CI (fuzz-smoke job) and at will with
//
//	go test -run='^$' -fuzz=FuzzFaultPlan ./internal/faults
func FuzzFaultPlan(f *testing.F) {
	for _, name := range Builtins() {
		if p, ok := BuiltinPlan(name); ok {
			f.Add(planJSON(p))
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","blackouts":[{"start":"1s","end":2500}]}`))
	f.Add([]byte(`{"name":"x","links":[{"from":"rsu","to":"obu","p_good_bad":0.1,"p_bad_good":0.9,"loss_bad":1}]}`))
	f.Add([]byte(`{"name":"x","crashes":[{"node":"obu","at":"2.5s","restart_after":1000}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		again, err := ParsePlan(planJSON(p))
		if err != nil {
			t.Fatalf("accepted plan does not re-parse: %v\n%s", err, planJSON(p))
		}
		if again.Name != p.Name || len(again.Blackouts) != len(p.Blackouts) ||
			len(again.Links) != len(p.Links) || len(again.Crashes) != len(p.Crashes) ||
			len(again.Noise) != len(p.Noise) {
			t.Fatalf("round-trip changed plan shape:\n%+v\n%+v", p, again)
		}
	})
}
