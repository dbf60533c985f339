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

// TestKeepAliveForwardingRescuesShadowedStation reproduces the point
// of DENM forwarding: a receiver shadowed from the originator still
// gets the warning through a peer that re-broadcasts it.
//
// Geometry: the RSU at the origin, station A off to the side with
// clear line of sight to everyone, station B straight ahead but behind
// a metal wall that breaks the direct RSU→B link.
func TestKeepAliveForwardingRescuesShadowedStation(t *testing.T) {
	k := sim.NewKernel(77)
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

	mk := func(name string, id units.StationID, pos geo.Point, kaf bool) *Station {
		st, err := New(k, medium, Config{
			Name:               name,
			Role:               RoleOBU,
			StationID:          id,
			StationType:        units.StationTypePassengerCar,
			Frame:              frame,
			Mobility:           StaticMobility{Point: pos, Geo: frame.ToGeodetic(pos)},
			NTP:                clock.PerfectNTP(),
			DisableCAMTriggers: true,
			DisableForwarding:  true, // isolate KAF from GN area forwarding
			EnableKAF:          kaf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	rsu := mk("rsu", 1001, geo.Point{X: 0, Y: 0}, false)
	a := mk("a", 2001, geo.Point{X: 30, Y: 10.1}, true)
	b := mk("b", 2002, geo.Point{X: 0, Y: 20}, false)

	// Sanity of the geometry: the wall cuts RSU→B only.
	if wallMap.ObstructionLossDB(geo.Point{X: 0, Y: 0}, geo.Point{X: 0, Y: 20}) == 0 {
		t.Fatal("wall does not block RSU→B")
	}
	if wallMap.ObstructionLossDB(geo.Point{X: 0, Y: 0}, geo.Point{X: 30, Y: 10.1}) != 0 {
		t.Fatal("wall blocks RSU→A")
	}
	if wallMap.ObstructionLossDB(geo.Point{X: 30, Y: 10.1}, geo.Point{X: 0, Y: 20}) != 0 {
		t.Fatal("wall blocks A→B")
	}

	defer a.Stop()
	_, err = rsu.DEN.Trigger(den.EventRequest{
		EventType: messages.EventType{CauseCode: messages.CauseCollisionRisk},
		Position:  frame.ToGeodetic(geo.Point{X: 0, Y: 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the single shot and the keep-alive cycle play out.
	k.Run(3 * time.Second)
	if a.DeliveredDENMs == 0 {
		t.Fatal("station A never received the DENM (geometry broken)")
	}
	if b.DeliveredDENMs == 0 {
		t.Fatal("shadowed station B never received the keep-alive forward")
	}
	if a.denRx.KAF.Forwarded == 0 {
		t.Fatal("A forwarded nothing")
	}
}

// TestKAFDisabledShadowedStationStarves is the control: without KAF
// the shadowed station misses the warning.
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
