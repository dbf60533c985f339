package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"itsbed/internal/metrics"
	"itsbed/internal/tracing"
)

// TestEnginesDeterministicAcrossWorkers holds the campaign engine's
// contract: the same BaseSeed gives field-by-field identical results,
// and identical rendered reports, for every worker count. Each case
// returns what it compares; its run at workers=1 is the reference.
func TestEnginesDeterministicAcrossWorkers(t *testing.T) {
	scenario := func(w int, trace bool) ScenarioOptions {
		o := fastOpt(42, 5)
		o.Workers, o.Trace = w, trace
		return o
	}
	cases := []struct {
		name    string
		workers []int // compared against workers=1
		run     func(workers int) (any, error)
	}{
		{"table2", []int{4, 8}, func(w int) (any, error) {
			res, err := TableII(scenario(w, false))
			return []any{res, res.Format()}, err
		}},
		{"table3", []int{8}, func(w int) (any, error) {
			opt := fastOpt(300, 7)
			opt.Workers = w
			return TableIII(opt)
		}},
		{"ntp-sweep", []int{4, 8}, func(w int) (any, error) {
			rows, err := NTPQualitySweep(11000, 6, w)
			return []any{rows, FormatNTPSweep(rows)}, err
		}},
		// Each attempt records into a private registry and accepted runs
		// merge in attempt order, so the rendered metrics and the
		// per-layer budget are byte-identical for every -workers value.
		{"metrics", []int{2, 8}, func(w int) (any, error) {
			res, err := TableII(scenario(w, false))
			if err != nil {
				return nil, err
			}
			if res.Metrics.Format() == "" || len(res.Metrics.Histograms) == 0 {
				return nil, errors.New("no metrics or no histograms recorded")
			}
			return []string{res.Metrics.Format(), res.LayerBudget().Format()}, nil
		}},
		// Each attempt records into a private tracer and accepted runs
		// merge in attempt order, so both export formats are
		// byte-identical for every -workers value.
		{"trace", []int{2, 8}, func(w int) (any, error) {
			res, err := TableII(scenario(w, true))
			if err != nil {
				return nil, err
			}
			fall := tracing.Waterfall(res.Traces.FilterTraces(func(root tracing.SpanRecord) bool {
				return root.Name == "denm.chain"
			}))
			if len(res.Traces.Spans) == 0 || fall == "" {
				return nil, errors.New("no spans or no denm.chain traces recorded")
			}
			return []any{res.Traces, string(tracing.ChromeTrace(res.Traces)), fall}, nil
		}},
		// The chaos plan draws from three fault streams in every run.
		{"resilience", []int{4, 8}, func(w int) (any, error) {
			opt := fastResilienceOpt(42, 4, "chaos")
			opt.Workers = w
			res, err := Resilience(opt)
			if err == nil && len(res.Rows) != 4 {
				err = fmt.Errorf("%d rows, want 4", len(res.Rows))
			}
			return []any{res, res.Format()}, err
		}},
		// Each run drives two full protocol stacks, a camera model and
		// kinematics off named kernel streams.
		{"cpm", []int{4, 8}, func(w int) (any, error) {
			res, err := CPMCampaign(CPMOptions{BaseSeed: 42, Runs: 4, Workers: w})
			if err == nil && len(res.Rows) != 4 {
				err = fmt.Errorf("%d rows, want 4", len(res.Rows))
			}
			return []any{res, FormatCPM(res)}, err
		}},
		{"city", []int{4, 8}, func(w int) (any, error) {
			rows, err := CitySweep(fastCity(w))
			return []any{rows, FormatCity(rows, fastCity(w))}, err
		}},
		// Camera misses are rejected attempts, so both modes exercise
		// the retry path at the decision cursor.
		{"platoon", []int{8}, func(w int) (any, error) {
			var out []any
			for _, mode := range []PlatoonMode{PlatoonITSG5, PlatoonHybrid} {
				res, err := PlatoonStudy(3000, 4, 3, mode, w)
				if err != nil {
					return nil, err
				}
				out = append(out, res, res.Format())
			}
			return out, nil
		}},
		// Each job runs both arms of one crossing on their own seeds.
		{"blindcorner", []int{8}, func(w int) (any, error) {
			res, err := BlindCorner(4000, 6, w)
			return []any{res, res.Format()}, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range c.workers {
				got, err := c.run(w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: differs from the serial run:\ngot  %+v\nwant %+v", w, got, want)
				}
			}
		})
	}
}

// TestHistogramQuantilesDeterministicAcrossWorkers pins the exported
// p50/p95/p99 estimates: Snapshot fills them from the merged buckets,
// so they are present, monotone, and — like everything downstream of
// the attempt-order merge — byte-identical in JSON for any -workers.
func TestHistogramQuantilesDeterministicAcrossWorkers(t *testing.T) {
	base := func(w int) ScenarioOptions {
		o := fastOpt(42, 5)
		o.Workers = w
		return o
	}
	want, err := TableII(base(1))
	if err != nil {
		t.Fatal(err)
	}
	var positive int
	for _, h := range want.Metrics.Histograms {
		if h.Count == 0 {
			continue
		}
		if h.P50 > h.P95 || h.P95 > h.P99 {
			t.Fatalf("%s: quantiles not monotone: p50=%g p95=%g p99=%g",
				sampleName(h), h.P50, h.P95, h.P99)
		}
		if h.P50 > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("no latency histogram exported a positive p50")
	}
	wantJSON, err := json.Marshal(want.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wantJSON), `"p95":`) {
		t.Fatal("snapshot JSON does not export the p95 field")
	}
	for _, w := range []int{2, 8} {
		got, err := TableII(base(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		gotJSON, err := json.Marshal(got.Metrics)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("workers=%d: snapshot JSON (incl. quantiles) not byte-identical to serial run", w)
		}
	}
}

func sampleName(h metrics.HistogramSample) string {
	name := h.Name
	for _, l := range h.Labels {
		name += " " + l.Key + "=" + l.Value
	}
	return name
}

func TestLayerBudgetSumsToTableIIAverage(t *testing.T) {
	res, err := TableII(fastOpt(42, 5))
	if err != nil {
		t.Fatal(err)
	}
	b := res.LayerBudget()
	var sum time.Duration
	for _, r := range b.Rows {
		sum += r.Mean
	}
	if sum != res.AvgTotal {
		t.Fatalf("budget rows sum to %v, want Table II avg total %v", sum, res.AvgTotal)
	}
	// The measured layers must account for a nonzero share of the
	// chain: radio and facilities cannot both be empty.
	var measured time.Duration
	for _, r := range b.Rows {
		if r.Layer == "facilities" || r.Layer == "radio" || r.Layer == "openc2x-poll" {
			measured += r.Mean
		}
	}
	if measured <= 0 {
		t.Fatal("no layer recorded any measured latency")
	}
}

// TestAttemptRegistryNoCrossAttemptLeakage audits the campaign's pooled
// per-attempt registries: a counter incremented during attempt N must
// read zero at the start of attempt N+1, and a pooled registry handed
// to a new attempt must snapshot empty before the attempt touches it.
func TestAttemptRegistryNoCrossAttemptLeakage(t *testing.T) {
	// Attempt N: take a sink from the pool the way runOnce does, record
	// some work, return it.
	sinkN := pooledSink()
	regN := sinkN.Metrics
	regN.Counter("leak_canary").Add(5)
	regN.Gauge("leak_depth").Add(7)
	regN.Histogram("leak_ms").Observe(123)
	attempts.Put(sinkN)

	// Attempt N+1: the sink comes back from the pool and is Reset
	// before use — nothing from attempt N may be visible.
	sinkN1 := pooledSink()
	defer attempts.Put(sinkN1)
	regN1 := sinkN1.Metrics
	if s := regN1.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("attempt N+1 starts with leaked families: %+v", s)
	}
	if v := regN1.Counter("leak_canary").Value(); v != 0 {
		t.Fatalf("leak_canary = %d at start of attempt N+1, want 0", v)
	}
	if v := regN1.Gauge("leak_depth").Value(); v != 0 {
		t.Fatalf("leak_depth = %g at start of attempt N+1, want 0", v)
	}
	regN1.Histogram("leak_ms") // revive without observing
	for _, h := range regN1.Snapshot().Histograms {
		if h.Count != 0 || h.Sum != 0 {
			t.Fatalf("leak_ms carries observations at start of attempt N+1: %+v", h)
		}
	}
}

// TestCampaignRepeatUsesCleanRegistries runs the same small campaign
// twice in a row. The second campaign draws warm registries and tracers
// from the pools populated by the first, so any cross-attempt state
// would corrupt its merged, byte-exact metrics/trace output.
func TestCampaignRepeatUsesCleanRegistries(t *testing.T) {
	opt := fastOpt(7, 4)
	opt.Trace = true
	first, err := TableII(opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := TableII(opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Metrics.Format() != second.Metrics.Format() {
		t.Fatal("repeat campaign metrics differ: pooled registries leak state between attempts")
	}
	if first.Format() != second.Format() {
		t.Fatal("repeat campaign table differs")
	}
	if len(first.Traces.Spans) == 0 {
		t.Fatal("traced campaign recorded no spans")
	}
	if !reflect.DeepEqual(first.Traces, second.Traces) {
		t.Fatal("repeat campaign traces differ: pooled tracers leak state between attempts")
	}
	if string(tracing.ChromeTrace(first.Traces)) != string(tracing.ChromeTrace(second.Traces)) {
		t.Fatal("repeat campaign Chrome trace export differs")
	}
}
