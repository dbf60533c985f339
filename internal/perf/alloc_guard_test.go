package perf

import (
	"testing"
	"time"

	"itsbed"
	"itsbed/internal/campaign"
	"itsbed/internal/experiments"
	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
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
//	full scenario (vision)  ~1.8k allocs/op (was ~49.5k at the seed;
//	                        the ceiling enforces far more than the
//	                        required 30% reduction)
//	Table II attempt        2419 allocs/op with Workers: 1 (was 4606
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
	// Flight-recorder append: writes into a preallocated ring slot
	// under a mutex — zero heap allocations on the steady-state path.
	maxAllocsFlightAppend = 0
	// C-V2X hot paths: one sidelink broadcast costs the frame copy,
	// the grant/completion closures and the slot-table entry (measured
	// 6 allocs/op); one Uu round trip costs the frame copy and the two
	// leg closures (measured 3 allocs/op).
	maxAllocsPC5Tx       = 16
	maxAllocsUuRoundTrip = 8
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

// TestAllocGuardFlightAppend pins the black-box recorder's hot path:
// once a station's hook is interned, Record must not allocate — the
// recorder stays always-on without touching the PR 5 alloc budget.
func TestAllocGuardFlightAppend(t *testing.T) {
	rec := flight.NewRecorder(64)
	hook := rec.Hook("guard")
	src := rec.Hook("peer")
	at := time.Duration(0)
	guardAllocs(t, "flight append", 10_000, maxAllocsFlightAppend, func() {
		at += time.Microsecond
		hook.Record(at, flight.RadioTx, 0, 128, 0)
		hook.RecordFrom(at, flight.RadioRx, flight.RxOK, src, 128, 0)
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
		if err := k.Run(horizon); err != nil {
			t.Fatal(err)
		}
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
	obu.SetReceiver(func([]byte) {})
	frame := make([]byte, 180)
	horizon := time.Duration(0)
	guardAllocs(t, "Uu round trip", 2000, maxAllocsUuRoundTrip, func() {
		if err := rsu.SendBroadcast(frame); err != nil {
			t.Fatal(err)
		}
		horizon += 50 * time.Millisecond
		if err := k.Run(horizon); err != nil {
			t.Fatal(err)
		}
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
