package stack

import (
	"math"
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/its/messages"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/units"
)

type twoStations struct {
	kernel *sim.Kernel
	medium *radio.Medium
	frame  *geo.Frame
	rsu    *Station
	obu    *Station
}

// hasCAMObject reports whether m tracks a fresh object from station
// id's CAMs.
func hasCAMObject(m *ldm.Map, id units.StationID) bool {
	for _, o := range m.ObjectsWithin(geo.Point{}, math.Inf(1)) {
		if o.Source == ldm.SourceCAM && o.StationID == id {
			return true
		}
	}
	return false
}

func newTwoStations(t *testing.T) *twoStations {
	t.Helper()
	k := sim.NewKernel(3)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	medium := radio.NewMedium(k, radio.MediumConfig{})
	rsuPos := geo.Point{X: 0, Y: 6}
	rsu, err := New(k, medium, Config{
		Name:               "rsu",
		Role:               RoleRSU,
		StationID:          1001,
		StationType:        units.StationTypeRoadSideUnit,
		Frame:              frame,
		Mobility:           StaticMobility{Point: rsuPos, Geo: frame.ToGeodetic(rsuPos)},
		NTP:                clock.PerfectNTP(),
		DisableCAMTriggers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	obuPos := geo.Point{X: 0, Y: 0}
	obu, err := New(k, medium, Config{
		Name:        "obu",
		Role:        RoleOBU,
		StationID:   2001,
		StationType: units.StationTypePassengerCar,
		Frame:       frame,
		Mobility:    StaticMobility{Point: obuPos, Geo: frame.ToGeodetic(obuPos)},
		NTP:         clock.PerfectNTP(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &twoStations{kernel: k, medium: medium, frame: frame, rsu: rsu, obu: obu}
}

func TestCAMExchangePopulatesLDM(t *testing.T) {
	ts := newTwoStations(t)
	ts.rsu.Start()
	ts.obu.Start()
	defer ts.rsu.Stop()
	defer ts.obu.Stop()
	ts.kernel.Run(3 * time.Second)
	// The RSU's LDM must track the OBU from its CAMs.
	if !hasCAMObject(ts.rsu.LDM, 2001) {
		t.Fatal("RSU LDM does not track the OBU")
	}
	if !hasCAMObject(ts.obu.LDM, 1001) {
		t.Fatal("OBU LDM does not track the RSU")
	}
	rx, malformed := ts.obu.caRx.Received, ts.obu.caRx.Malformed
	if rx == 0 || malformed != 0 {
		t.Fatalf("OBU CA stats rx=%d malformed=%d", rx, malformed)
	}
}

func TestDENMDeliveredToApplication(t *testing.T) {
	ts := newTwoStations(t)
	ts.rsu.Start()
	ts.obu.Start()
	defer ts.rsu.Stop()
	defer ts.obu.Stop()

	var got *messages.DENM
	var at time.Duration
	ts.obu.OnDENM = func(d *messages.DENM) {
		got = d
		at = ts.kernel.Now()
	}
	var sentAt time.Duration
	ts.kernel.Schedule(time.Second, func() {
		sentAt = ts.kernel.Now()
		_, err := ts.rsu.DEN.Trigger(den.EventRequest{
			EventType: messages.EventType{
				CauseCode:    messages.CauseCollisionRisk,
				SubCauseCode: messages.CollisionRiskCrossing,
			},
			Position: ts.frame.ToGeodetic(geo.Point{X: 0, Y: 3}),
			Quality:  3,
		})
		if err != nil {
			t.Error(err)
		}
	})
	ts.kernel.Run(3 * time.Second)
	if got == nil {
		t.Fatal("DENM never delivered")
	}
	if got.Situation.EventType.CauseCode != messages.CauseCollisionRisk {
		t.Fatal("wrong event type")
	}
	latency := at - sentAt
	// Tx stack + airtime + rx stack: ~1-3 ms.
	if latency <= 0 || latency > 5*time.Millisecond {
		t.Fatalf("DENM app-to-app latency %v", latency)
	}
	// LDM ingested the event.
	if _, events := ts.obu.LDM.Counts(); events != 1 {
		t.Fatal("event missing from OBU LDM")
	}
}

func TestDENMOutsideAreaNotDelivered(t *testing.T) {
	ts := newTwoStations(t)
	ts.rsu.Start()
	ts.obu.Start()
	defer ts.rsu.Stop()
	defer ts.obu.Stop()
	n := 0
	ts.obu.OnDENM = func(*messages.DENM) { n++ }
	ts.kernel.Schedule(time.Second, func() {
		// Event area 1 km to the east with a small radius: the OBU is
		// outside the destination area and must not deliver.
		_, err := ts.rsu.DEN.Trigger(den.EventRequest{
			EventType:       messages.EventType{CauseCode: messages.CauseCollisionRisk},
			Position:        ts.frame.ToGeodetic(geo.Point{X: 1000, Y: 0}),
			RelevanceRadius: 50,
		})
		if err != nil {
			t.Error(err)
		}
	})
	ts.kernel.Run(3 * time.Second)
	if n != 0 {
		t.Fatal("out-of-area DENM delivered")
	}
}

func TestStationRequiresMobilityAndFrame(t *testing.T) {
	k := sim.NewKernel(1)
	medium := radio.NewMedium(k, radio.MediumConfig{})
	if _, err := New(k, medium, Config{Name: "x", Frame: nil, Mobility: StaticMobility{}}); err == nil {
		t.Fatal("station without frame accepted")
	}
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(k, medium, Config{Name: "x", Frame: frame}); err == nil {
		t.Fatal("station without mobility accepted")
	}
	if _, err := New(k, nil, Config{Name: "x", Frame: frame, Mobility: StaticMobility{}}); err == nil {
		t.Fatal("station without radio backend accepted")
	}
}

// loopLink is a Link that immediately echoes frames to subscribers.
type loopLink struct{ rcv func(*radio.Frame) }

func (l *loopLink) SendBroadcast(f []byte) error {
	if l.rcv != nil {
		cp := make([]byte, len(f))
		copy(cp, f)
		l.rcv(&radio.Frame{Bytes: cp})
	}
	return nil
}
func (l *loopLink) SetReceiver(fn func(*radio.Frame)) { l.rcv = fn }

// loopBackend attaches every station to its own loopLink.
type loopBackend struct{}

func (loopBackend) AttachStation(string, radio.PositionFunc) (radio.Link, error) {
	return &loopLink{}, nil
}

func TestLinkOverride(t *testing.T) {
	k := sim.NewKernel(1)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name:        "cell",
		Role:        RoleOBU,
		StationID:   5,
		StationType: units.StationTypePassengerCar,
		Frame:       frame,
		Mobility:    StaticMobility{Geo: geo.CISTERLab},
		NTP:         clock.PerfectNTP(),
	}
	st, err := New(k, loopBackend{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iface != nil {
		t.Fatal("non-802.11p backend still attached a radio")
	}
	dcc := cfg
	dcc.Name, dcc.EnableDCC = "cell-dcc", true
	if _, err := New(k, loopBackend{}, dcc); err == nil {
		t.Fatal("DCC accepted without an 802.11p interface")
	}
	// The loop link echoes our own GBC back; the router's duplicate
	// filter must drop it rather than deliver.
	delivered := 0
	st.OnDENM = func(*messages.DENM) { delivered++ }
	_, err = st.DEN.Trigger(den.EventRequest{
		EventType: messages.EventType{CauseCode: messages.CauseCollisionRisk},
		Position:  geo.CISTERLab,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if delivered != 0 {
		t.Fatal("own echoed DENM was delivered")
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleOBU.String() != "OBU" || RoleRSU.String() != "RSU" {
		t.Fatal("role strings")
	}
}

func TestStationAccessors(t *testing.T) {
	ts := newTwoStations(t)
	if ts.rsu.Name() != "rsu" || ts.rsu.cfg.StationID != 1001 {
		t.Fatal("accessors")
	}
}
