package stack

import (
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/ldm"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/units"
)

// newCPMPair builds an RSU and an OBU with the CP service enabled on a
// shared medium. The RSU "camera" detection is driven by the test.
func newCPMPair(t *testing.T) (*sim.Kernel, *Station, *Station) {
	t.Helper()
	k := sim.NewKernel(7)
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
		EnableCPM:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	obu, err := New(k, medium, Config{
		Name:        "obu",
		Role:        RoleOBU,
		StationID:   2001,
		StationType: units.StationTypePassengerCar,
		Frame:       frame,
		Mobility:    StaticMobility{Point: geo.Point{}, Geo: frame.ToGeodetic(geo.Point{})},
		NTP:         clock.PerfectNTP(),
		EnableCPM:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, rsu, obu
}

func TestCPMExchangeFusesRemoteDetection(t *testing.T) {
	k, rsu, obu := newCPMPair(t)
	pedPos := geo.Point{X: 4, Y: 3}
	// The RSU camera sees a pedestrian the OBU cannot.
	k.Every(50*time.Millisecond, 250*time.Millisecond, func() {
		rsu.LDM.IngestSensedObject("person", units.StationTypePedestrian, pedPos, 1.0, 0)
	})
	rsu.Start()
	obu.Start()
	defer rsu.Stop()
	defer obu.Stop()
	k.Run(2 * time.Second)
	// The OBU's LDM must hold the pedestrian as a CPM-fused object.
	objs := obu.LDM.ObjectsWithin(pedPos, 0.5)
	if len(objs) != 1 {
		t.Fatalf("OBU fused %d objects near the pedestrian, want 1", len(objs))
	}
	o := objs[0]
	if o.Source != ldm.SourceCPM || o.Origin != 1001 || o.Classification != "person" {
		t.Fatalf("fused object %+v", o)
	}
	rx, malformed, fused, _ := obu.CPReceiverStats()
	if rx == 0 || malformed != 0 || fused == 0 {
		t.Fatalf("CP receiver: rx=%d malformed=%d fused=%d", rx, malformed, fused)
	}
	if obu.DeliveredCPMs == 0 {
		t.Fatal("DeliveredCPMs not counted")
	}
	// The OBU shares nothing: its LDM holds only second-hand objects.
	if rsuRx, _, rsuFused, _ := rsu.CPReceiverStats(); rsuRx != 0 || rsuFused != 0 {
		t.Fatalf("OBU re-shared second-hand perception: rsu rx=%d fused=%d", rsuRx, rsuFused)
	}
}

func TestCPMStopsWithStation(t *testing.T) {
	k, rsu, obu := newCPMPair(t)
	k.Every(50*time.Millisecond, 250*time.Millisecond, func() {
		rsu.LDM.IngestSensedObject("person", units.StationTypePedestrian, geo.Point{X: 4}, 0, 0)
	})
	rsu.Start()
	obu.Start()
	k.Run(time.Second)
	rsu.Stop()
	rxAtStop, _, _, _ := obu.CPReceiverStats()
	if rxAtStop == 0 {
		t.Fatal("no CPMs before stop")
	}
	k.Run(time.Second)
	if rxAfter, _, _, _ := obu.CPReceiverStats(); rxAfter != rxAtStop {
		t.Fatalf("CPMs kept flowing after Stop: %d → %d", rxAtStop, rxAfter)
	}
	obu.Stop()
}
