package stack

import (
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/messages"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/units"
	"itsbed/internal/world"
)

// TestKAFDisabledShadowedStationStarves: a metal wall cuts the RSU→B
// link, and with GN forwarding off no station relays the DENM, so the
// shadowed station misses the warning.
func TestKAFDisabledShadowedStationStarves(t *testing.T) {
	k := sim.NewKernel(78)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	wallMap := world.NewMap([]world.Wall{{
		Segment:  geo.Segment{A: geo.Point{X: -5, Y: 10}, B: geo.Point{X: 5, Y: 10}},
		Material: world.MaterialMetal,
	}})
	pl := radio.DefaultIndoorPathLoss()
	pl.ShadowingSigmaDB = 0
	medium := radio.NewMedium(k, radio.MediumConfig{PathLoss: pl, Obstructions: wallMap})
	mk := func(name string, id units.StationID, pos geo.Point) *Station {
		st, err := New(k, medium, Config{
			Name: name, Role: RoleOBU, StationID: id,
			StationType: units.StationTypePassengerCar, Frame: frame,
			Mobility:           StaticMobility{Point: pos, Geo: frame.ToGeodetic(pos)},
			NTP:                clock.PerfectNTP(),
			DisableCAMTriggers: true,
			DisableForwarding:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	rsu := mk("rsu", 1001, geo.Point{X: 0, Y: 0})
	_ = mk("a", 2001, geo.Point{X: 30, Y: 10.1})
	b := mk("b", 2002, geo.Point{X: 0, Y: 20})
	if _, err := rsu.DEN.Trigger(den.EventRequest{
		EventType: messages.EventType{CauseCode: messages.CauseCollisionRisk},
		Position:  frame.ToGeodetic(geo.Point{X: 0, Y: 10}),
	}); err != nil {
		t.Fatal(err)
	}
	k.Run(3 * time.Second)
	if b.DeliveredDENMs != 0 {
		t.Fatal("shadowed station received the DENM without forwarding (link model too generous)")
	}
}
