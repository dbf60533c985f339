package perf

import (
	"math"
	"testing"
	"time"

	"itsbed"
	"itsbed/internal/campaign"
	"itsbed/internal/experiments"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/metrics"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/vision"
)

// Allocation ceilings for the hot paths. These are regression guards,
// not targets: each ceiling sits well above the measured value (see
// EXPERIMENTS.md for the current numbers) so legitimate changes have
// headroom, but far below the pre-optimisation cost, so reintroducing
// per-message or per-attempt garbage fails the suite.
//
// Measured on the reference machine after the zero-allocation work:
//
//	DENM encode             1 alloc/op   (was 5)
//	DENM decode             5 allocs/op
//	CAM encode+decode       2 allocs/op  (was 18)
//	full scenario (vision)  ~1.6k allocs/op (was ~49.5k at the seed;
//	                        the ceiling enforces far more than the
//	                        required 30% reduction)
//	CAM fan-out, 100 stacks 6 allocs/op (was 106 with one rx-latency
//	                        closure and one LDM and location table entry
//	                        per receiver)
//	Table II attempt        2241 allocs/op with Workers: 1 (was 4606
//	                        before registry lookups were interned and
//	                        the per-step snapshots deleted). Under
//	                        -race sync.Pool drops a quarter of Puts, so
//	                        ~1 in 4 attempts rebuilds a registry (+~600)
//	                        and the ten-run average spans 2.6k-3.0k; the
//	                        3.4k ceiling leaves room for that, not more.
const (
	maxAllocsDENMEncode     = 8
	maxAllocsDENMDecode     = 16
	maxAllocsCAMRoundTrip   = 16
	maxAllocsCPMRoundTrip   = 16
	maxAllocsTableIIAttempt = 3_400
	maxAllocsScenario       = 10_000
	// Campaign engine overhead per attempt on top of the attempts
	// themselves (channels, result reordering buffer).
	maxAllocsCampaignPerRun = 24
	// One LDM range query over 64 objects: the result slice, the
	// distance cache, and the sort wrapper — nothing per comparison.
	maxAllocsLDMQuery = 24
	// LDM ingestion: a known station's CAM refreshes its entry in
	// place, and a new station takes a slot GC freed — nothing.
	maxAllocsLDMIngest = 0
	// Flight-recorder append: writes into a preallocated ring slot
	// under a mutex — zero heap allocations on the steady-state path.
	maxAllocsFlightAppend = 0
	// C-V2X hot paths: one sidelink broadcast costs the frame copy,
	// the grant/completion closures and the slot-table entry (measured
	// 6 allocs/op); one Uu round trip costs the frame copy, the Frame
	// its receivers share and the downlink closure (measured 3
	// allocs/op).
	maxAllocsPC5Tx       = 16
	maxAllocsUuRoundTrip = 8
	// One vision cycle once the detector's frame, Canny and Hough
	// buffers exist: nothing, neither for the noise nor for the
	// pipeline after it.
	maxAllocsDetect      = 0
	maxAllocsDetectFrame = 0
	// One frame render once the image and its row spans exist:
	// nothing.
	maxAllocsRenderInto = 0
)

// guardAllocs runs fn and fails the test when the average allocation
// count exceeds the ceiling.
func guardAllocs(t *testing.T, name string, runs int, ceiling float64, fn func()) {
	t.Helper()
	got := testing.AllocsPerRun(runs, fn)
	if got > ceiling {
		t.Errorf("%s: %.1f allocs/op exceeds the guard ceiling of %.0f", name, got, ceiling)
	}
	t.Logf("%s: %.1f allocs/op (ceiling %.0f)", name, got, ceiling)
}

func TestAllocGuardDENMEncode(t *testing.T) {
	d := sampleDENM()
	guardAllocs(t, "DENM encode", 200, maxAllocsDENMEncode, func() {
		if _, err := d.Encode(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocGuardDENMDecode(t *testing.T) {
	data, err := sampleDENM().Encode()
	if err != nil {
		t.Fatal(err)
	}
	guardAllocs(t, "DENM decode", 200, maxAllocsDENMDecode, func() {
		if _, err := itsbed.DecodeDENM(data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocGuardCAMRoundTrip(t *testing.T) {
	cam := sampleCAM()
	guardAllocs(t, "CAM round-trip", 200, maxAllocsCAMRoundTrip, func() {
		data, err := cam.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := itsbed.DecodeCAM(data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocGuardCPMRoundTrip(t *testing.T) {
	c := sampleCPM()
	guardAllocs(t, "CPM round-trip", 200, maxAllocsCPMRoundTrip, func() {
		data, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := itsbed.DecodeCPM(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGuardLDMObjectsWithin pins the range query's allocation
// profile: the distances are computed once per object and cached, so
// the sort comparator allocates nothing and the whole query costs a
// constant handful of slices regardless of how often it sorts.
func TestAllocGuardLDMObjectsWithin(t *testing.T) {
	m := benchLDM(t, 64)
	guardAllocs(t, "LDM ObjectsWithin (64 objects)", 200, maxAllocsLDMQuery, func() {
		if got := m.ObjectsWithin(geo.Point{}, 8); len(got) != 64 {
			t.Fatalf("query returned %d objects", len(got))
		}
	})
}

// TestAllocGuardLDMIngestSteadyState pins the LDM's value slab: a CAM
// from a tracked station updates its object in place, and a CAM from a
// new station after a GC reuses the slot the GC freed.
func TestAllocGuardLDMIngestSteadyState(t *testing.T) {
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Second
	m := ldm.New(ldm.Config{Frame: frame, Now: func() time.Duration { return now }})
	cam := sampleCAM()
	m.IngestCAM(cam)
	guardAllocs(t, "LDM CAM ingest, known station", 200, maxAllocsLDMIngest, func() { m.IngestCAM(cam) })
	guardAllocs(t, "LDM CAM ingest, new station after GC", 200, maxAllocsLDMIngest, func() {
		now += 2 * time.Second
		m.GC()
		cam.Header.StationID++
		m.IngestCAM(cam)
	})
	if objs := m.ObjectsWithin(geo.Point{}, math.Inf(1)); len(objs) != 1 || objs[0].StationID != cam.Header.StationID {
		t.Fatalf("LDM objects %+v, want the last station's", objs)
	}
	if objs, _ := m.Counts(); objs != 1 {
		t.Fatalf("LDM holds %d objects, want 1", objs)
	}
}

// TestAllocGuardFlightAppend pins the black-box recorder's hot path:
// once a station's hook is interned, Record must not allocate — the
// recorder stays always-on without touching the PR 5 alloc budget. The
// station handle every layer reports through must add nothing to it:
// recording through it, looking up and incrementing a station counter
// it already holds, and starting a span with tracing off all stay free.
func TestAllocGuardFlightAppend(t *testing.T) {
	rec := flight.NewRecorder(64)
	hook := rec.Hook("guard")
	src := rec.Hook("peer")
	probe := trace.Sink{Metrics: metrics.NewRegistry(), Flight: rec}.Probe("guard")
	probe.Counter("guard_total", metrics.L("msg", "denm")).Inc()
	at := time.Duration(0)
	guardAllocs(t, "flight append", 10_000, maxAllocsFlightAppend, func() {
		at += time.Microsecond
		hook.Record(at, flight.RadioTx, 0, 128, 0)
		hook.RecordFrom(at, flight.RadioRx, flight.RxOK, src, 128, 0)
	})
	guardAllocs(t, "probe flight record", 10_000, maxAllocsFlightAppend, func() {
		at += time.Microsecond
		probe.Record(at, flight.RadioTx, 0, 128, 0)
		probe.RecordFrom(at, flight.RadioRx, flight.RxOK, src, 128, 0)
	})
	guardAllocs(t, "probe counter increment", 10_000, maxAllocsFlightAppend, func() {
		probe.Counter("guard_total", metrics.L("msg", "denm")).Inc()
	})
	guardAllocs(t, "probe span start, tracing off", 10_000, maxAllocsFlightAppend, func() {
		probe.Start("guard.span", "guard", at).End(at)
	})
}

// TestAllocGuardPC5Tx pins the sidelink transmit path: queueing a
// frame onto an SPS grant and completing it across the fleet must stay
// a constant handful of allocations.
func TestAllocGuardPC5Tx(t *testing.T) {
	k, _, ifaces := pc5Fleet(t, 2)
	frame := make([]byte, 180)
	horizon := time.Duration(0)
	guardAllocs(t, "PC5 tx", 2000, maxAllocsPC5Tx, func() {
		if err := ifaces[0].SendBroadcast(frame); err != nil {
			t.Fatal(err)
		}
		// One full RRI per op, so every grant fires and the slot table
		// is drained before the next frame queues.
		horizon += 200 * time.Millisecond
		k.Run(horizon)
	})
}

// TestAllocGuardUuRoundTrip pins the infrastructure path: one uplink +
// fan-out + downlink round must not grow per-message garbage.
func TestAllocGuardUuRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	l := radio.NewCellularLink(k, radio.Profile5GURLLC())
	rsu, err := l.AttachUu("rsu")
	if err != nil {
		t.Fatal(err)
	}
	obu, err := l.AttachUu("obu")
	if err != nil {
		t.Fatal(err)
	}
	obu.SetReceiver(func(*radio.Frame) {})
	frame := make([]byte, 180)
	horizon := time.Duration(0)
	guardAllocs(t, "Uu round trip", 2000, maxAllocsUuRoundTrip, func() {
		if err := rsu.SendBroadcast(frame); err != nil {
			t.Fatal(err)
		}
		horizon += 50 * time.Millisecond
		k.Run(horizon)
	})
}

func TestAllocGuardTableIIAttempt(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario attempt guard skipped in -short mode")
	}
	// Workers: 1 keeps the campaign from scheduling speculative extra
	// attempts, which would scale allocs/op with the host's core count.
	opt := experiments.ScenarioOptions{BaseSeed: 42, Runs: 1, Workers: 1, UseVision: false}
	// Warm the attempt pools so the guard measures steady-state cost.
	if _, err := experiments.TableII(opt); err != nil {
		t.Fatal(err)
	}
	// Ten runs average out the pool drops -race injects.
	guardAllocs(t, "Table II attempt", 10, maxAllocsTableIIAttempt, func() {
		if _, err := experiments.TableII(opt); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGuardDetect pins the vision cycle's steady state on a
// detector drawing from a kernel's stream, as a vehicle's does: after
// the first frame sized the detector's buffers and built the stream's
// register, Detect allocates nothing per frame. A noise block that
// escaped to the heap would cost one allocation per frame.
func TestAllocGuardDetect(t *testing.T) {
	det, line, pos := paperLabDetector()
	guardAllocs(t, "Detect", 200, maxAllocsDetect, func() {
		det.Detect(line, pos, 0)
	})
}

// TestAllocGuardDetectFrame pins the pipeline after the render: Canny,
// with its candidate list, the region filter and Hough allocate
// nothing once a frame has sized them.
func TestAllocGuardDetectFrame(t *testing.T) {
	det, line, pos := paperLabDetector()
	frame := new(vision.Gray)
	det.Camera.RenderInto(frame, line, pos, 0, det.LineWidth, sim.NewKernel(43).Source("frame"))
	det.DetectFrame(frame)
	guardAllocs(t, "DetectFrame", 200, maxAllocsDetectFrame, func() {
		det.DetectFrame(frame)
	})
}

// TestAllocGuardRenderInto pins the frame render's steady state: after
// the first frame sized the image and its row-span scratch, a render
// allocates nothing.
func TestAllocGuardRenderInto(t *testing.T) {
	render := paperLabRender()
	guardAllocs(t, "RenderInto", 200, maxAllocsRenderInto, render)
}

func TestAllocGuardScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scenario guard skipped in -short mode")
	}
	// One full vision-enabled emergency-braking scenario. The seed
	// codebase spent ~49.5k allocs here; the ceiling enforces the
	// required ≥30% reduction (≤34.7k) with a wide margin.
	guardAllocs(t, "scenario", 2, maxAllocsScenario, func() {
		res, err := itsbed.RunQuick(1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stopped {
			t.Fatal("vehicle did not stop")
		}
	})
}

func TestAllocGuardCampaignEngine(t *testing.T) {
	// Engine overhead only: a 1k-attempt campaign with a trivial run
	// function, serial so the measurement is not smeared across
	// goroutines.
	const n = 1000
	guardAllocs(t, "campaign engine (1k runs)", 3, maxAllocsCampaignPerRun*n, func() {
		out, err := campaign.Collect(campaign.Options{Workers: 1}, n, 2*n,
			func(i int) (int, error) { return i, nil },
			func(v int) bool { return v%2 == 0 })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("collected %d, want %d", len(out), n)
		}
	})
}
