package cp

import (
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/its/messages"
	"itsbed/internal/sim"
	"itsbed/internal/units"
)

// harness wires a CP service on one station to a CP receiver on
// another, with independent LDMs.
type harness struct {
	kernel *sim.Kernel
	frame  *geo.Frame
	txLDM  *ldm.Map
	rxLDM  *ldm.Map
	svc    *Service
	rcv    *Receiver
	sent   [][]byte
}

type fixedGate time.Duration

func (g fixedGate) MinInterval() time.Duration { return time.Duration(g) }

func newHarness(t *testing.T, gate TxGate) *harness {
	t.Helper()
	h := &harness{kernel: sim.NewKernel(1)}
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	h.frame = frame
	h.txLDM = ldm.New(ldm.Config{Frame: frame, Now: h.kernel.Now})
	h.rxLDM = ldm.New(ldm.Config{Frame: frame, Now: h.kernel.Now})
	h.rcv = &Receiver{
		OwnID: 2001,
		Frame: frame,
		LDM:   h.rxLDM,
		Now:   h.kernel.Now,
	}
	clk := clock.NewNTP(clock.SourceFunc(h.kernel.Now), clock.PerfectNTP(), nil)
	svc, err := New(h.kernel, Config{
		StationID:   901,
		StationType: units.StationTypeRoadSideUnit,
		Frame:       frame,
		Position:    func() geo.LatLon { return geo.CISTERLab },
		LDM:         h.txLDM,
		Send: func(p []byte) error {
			h.sent = append(h.sent, p)
			h.rcv.OnDecoded(messages.DecodeCPM(p))
			return nil
		},
		Clock: clk,
		Gate:  gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.svc = svc
	return h
}

// sense keeps a pedestrian detection fresh in the sender's LDM.
func (h *harness) sense(pos geo.Point) {
	h.kernel.Every(50*time.Millisecond, 200*time.Millisecond, func() {
		h.txLDM.IngestSensedObject("person", units.StationTypePedestrian, pos, 1.2, 0.5)
	})
}

func TestCPMSharesLocalPerception(t *testing.T) {
	h := newHarness(t, nil)
	h.sense(geo.Point{X: 2.5, Y: -0.8})
	h.svc.Start()
	h.kernel.Run(2 * time.Second)
	h.svc.Stop()
	// 250 ms cycle over 2 s: expect ~8 CPMs.
	if len(h.sent) < 7 || len(h.sent) > 9 {
		t.Fatalf("sent %d CPMs in 2 s, want ~8", len(h.sent))
	}
	cpm, err := messages.DecodeCPM(h.sent[0])
	if err != nil {
		t.Fatalf("decode own CPM: %v", err)
	}
	if cpm.Header.StationID != 901 || cpm.Management.StationType != units.StationTypeRoadSideUnit {
		t.Fatalf("header %+v management %+v", cpm.Header, cpm.Management)
	}
	if len(cpm.PerceivedObjects) != 1 {
		t.Fatalf("objects %d, want 1", len(cpm.PerceivedObjects))
	}
	po := cpm.PerceivedObjects[0]
	if po.Class != messages.ObjectClassPerson {
		t.Fatalf("class %v, want person", po.Class)
	}
	if po.XDistance != 250 || po.YDistance != -80 {
		t.Fatalf("distance (%d, %d) cm, want (250, -80)", po.XDistance, po.YDistance)
	}
	if po.TimeOfMeasurement > 0 || po.TimeOfMeasurement < messages.TimeOfMeasurementMin {
		t.Fatalf("time of measurement %d out of range", po.TimeOfMeasurement)
	}
	if h.svc.Generated != uint64(len(h.sent)) || h.svc.ObjectsShared != uint64(len(h.sent)) {
		t.Fatalf("counters generated=%d shared=%d sent=%d",
			h.svc.Generated, h.svc.ObjectsShared, len(h.sent))
	}
}

func TestCPMSilentWithoutPerception(t *testing.T) {
	h := newHarness(t, nil)
	h.svc.Start()
	h.kernel.Run(2 * time.Second)
	if len(h.sent) != 0 {
		t.Fatalf("sent %d CPMs with an empty LDM, want 0", len(h.sent))
	}
}

func TestCPMGateThrottles(t *testing.T) {
	h := newHarness(t, fixedGate(600*time.Millisecond))
	h.sense(geo.Point{X: 1})
	h.svc.Start()
	h.kernel.Run(3 * time.Second)
	// 600 ms floor over 3 s: at most ~5, far below the 12 an unthrottled
	// 250 ms cycle would give.
	if len(h.sent) > 6 {
		t.Fatalf("sent %d CPMs under a 600 ms gate in 3 s", len(h.sent))
	}
	if len(h.sent) < 4 {
		t.Fatalf("gate over-throttled: %d CPMs in 3 s", len(h.sent))
	}
}

func TestReceiverFusesRemoteObjects(t *testing.T) {
	h := newHarness(t, nil)
	h.sense(geo.Point{X: 2.5, Y: -0.8})
	h.svc.Start()
	h.kernel.Run(time.Second)
	if h.rcv.Received == 0 || h.rcv.ObjectsFused == 0 {
		t.Fatalf("receiver saw %d CPMs, fused %d objects", h.rcv.Received, h.rcv.ObjectsFused)
	}
	objs := h.rxLDM.ObjectsWithin(geo.Point{X: 2.5, Y: -0.8}, 0.1)
	if len(objs) != 1 {
		t.Fatalf("fused objects near detection: %d, want 1", len(objs))
	}
	o := objs[0]
	if o.Source != ldm.SourceCPM || o.Origin != 901 {
		t.Fatalf("fused object %+v", o)
	}
	if o.StationType != units.StationTypePedestrian || o.Classification != "person" {
		t.Fatalf("class mapping lost: %+v", o)
	}
	if o.SpeedMS < 1.1 || o.SpeedMS > 1.3 {
		t.Fatalf("speed %v, want ~1.2", o.SpeedMS)
	}
	if o.HeadingRad < 0.45 || o.HeadingRad > 0.55 {
		t.Fatalf("heading %v, want ~0.5", o.HeadingRad)
	}
}

func TestReceiverDropsOwnCPM(t *testing.T) {
	h := newHarness(t, nil)
	h.rcv.OwnID = 901 // the sender itself
	h.sense(geo.Point{X: 1})
	h.svc.Start()
	h.kernel.Run(time.Second)
	if h.rcv.Received != 0 || h.rcv.ObjectsFused != 0 {
		t.Fatalf("own CPM processed: received=%d fused=%d", h.rcv.Received, h.rcv.ObjectsFused)
	}
	if len(h.rxLDM.ObjectsWithin(geo.Point{}, 1000)) != 0 {
		t.Fatal("own perception echoed into the LDM")
	}
}

func TestReceiverCountsMalformed(t *testing.T) {
	h := newHarness(t, nil)
	h.rcv.OnDecoded(messages.DecodeCPM([]byte{0xff, 0x00}))
	h.rcv.OnDecoded(messages.DecodeCPM(nil))
	if h.rcv.Malformed != 2 || h.rcv.Received != 0 {
		t.Fatalf("malformed=%d received=%d", h.rcv.Malformed, h.rcv.Received)
	}
}

func TestSecondHandObjectsNeverReshared(t *testing.T) {
	// The sender's LDM holds only objects fused from someone else's CPM
	// and a CAM track — no first-hand perception. It must stay silent.
	h := newHarness(t, nil)
	h.kernel.Every(50*time.Millisecond, 200*time.Millisecond, func() {
		h.txLDM.IngestCPMObject(777, 3, units.StationTypePedestrian, "person",
			geo.Point{X: 1}, 0, 0, h.kernel.Now())
	})
	h.svc.Start()
	h.kernel.Run(2 * time.Second)
	if len(h.sent) != 0 {
		t.Fatalf("re-shared %d CPMs of second-hand perception", len(h.sent))
	}
}

func TestCPMSkipsOutOfRangeObjects(t *testing.T) {
	h := newHarness(t, nil)
	// 2 km east: beyond the ±1327.68 m DistanceValue range.
	h.kernel.Every(50*time.Millisecond, 200*time.Millisecond, func() {
		h.txLDM.IngestSensedObject("person", units.StationTypePedestrian,
			geo.Point{X: 2000}, 0, 0)
	})
	h.svc.Start()
	h.kernel.Run(time.Second)
	if len(h.sent) != 0 {
		t.Fatalf("encoded %d CPMs for an unrepresentable object", len(h.sent))
	}
}

func TestNewRejectsMissingDependencies(t *testing.T) {
	kernel := sim.NewKernel(1)
	if _, err := New(kernel, Config{}); err == nil {
		t.Fatal("New accepted an empty config")
	}
}
