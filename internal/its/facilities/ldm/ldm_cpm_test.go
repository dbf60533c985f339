package ldm

import (
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/units"
)

func TestIngestCPMObjectCreatesAndRefreshes(t *testing.T) {
	m, now := newTestMap(t)
	if !m.IngestCPMObject(901, 7, units.StationTypePedestrian, "person", geo.Point{X: 1, Y: 2}, 0.5, 0, 0) {
		t.Fatal("first fusion rejected")
	}
	*now = 100 * time.Millisecond
	if !m.IngestCPMObject(901, 7, units.StationTypePedestrian, "person", geo.Point{X: 1.1, Y: 2}, 0.6, 0, 100*time.Millisecond) {
		t.Fatal("newer measurement rejected")
	}
	objs := m.ObjectsWithin(geo.Point{}, 10)
	if len(objs) != 1 {
		t.Fatalf("objects %d, want 1 (refresh must not duplicate)", len(objs))
	}
	o := objs[0]
	if o.Source != SourceCPM || o.Origin != 901 || o.ObjectID != 7 {
		t.Fatalf("fused object %+v", o)
	}
	if o.SpeedMS != 0.6 || o.Position.X != 1.1 {
		t.Fatalf("refresh did not apply: %+v", o)
	}
}

func TestIngestCPMStaleMeasurementIgnored(t *testing.T) {
	m, now := newTestMap(t)
	*now = 500 * time.Millisecond
	if !m.IngestCPMObject(901, 7, units.StationTypePedestrian, "person", geo.Point{X: 2}, 0.5, 0, 400*time.Millisecond) {
		t.Fatal("first fusion rejected")
	}
	// A delayed copy carrying an older measurement must not roll the
	// track back.
	if m.IngestCPMObject(901, 7, units.StationTypePedestrian, "person", geo.Point{X: 9}, 9, 0, 300*time.Millisecond) {
		t.Fatal("stale remote measurement accepted")
	}
	// Equal measurement time is a duplicate, not an update.
	if m.IngestCPMObject(901, 7, units.StationTypePedestrian, "person", geo.Point{X: 9}, 9, 0, 400*time.Millisecond) {
		t.Fatal("duplicate remote measurement accepted")
	}
	o := m.ObjectsWithin(geo.Point{}, 100)[0]
	if o.Position.X != 2 || o.SpeedMS != 0.5 {
		t.Fatalf("stale copy overwrote the track: %+v", o)
	}
}

func TestCPMFusedObjectsAreSecondHand(t *testing.T) {
	// Ownership: LocalPerception feeds this station's own CPMs, so it
	// must contain only SourceLocalSensor objects — never CAM tracks or
	// objects fused from other stations' CPMs.
	m, _ := newTestMap(t)
	m.IngestSensedObject("person", units.StationTypePedestrian, geo.Point{X: 1}, 0, 0)
	m.IngestSensedObject("motorbike", units.StationTypeMotorcycle, geo.Point{X: 2}, 1, 0)
	m.IngestCPMObject(901, 3, units.StationTypePedestrian, "person", geo.Point{X: 3}, 0, 0, 0)
	m.IngestCAM(testCAM(2001, geo.CISTERLab, 1.0))

	own := m.LocalPerception()
	if len(own) != 2 {
		t.Fatalf("local perception %d objects, want 2 (second-hand leaked)", len(own))
	}
	for _, o := range own {
		if o.Source != SourceLocalSensor {
			t.Fatalf("non-sensor object in local perception: %+v", o)
		}
	}
	// Ordered by wire object ID, which IngestSensedObject assigns in
	// first-seen order.
	if own[0].Classification != "person" || own[1].Classification != "motorbike" {
		t.Fatalf("order: %s then %s", own[0].Classification, own[1].Classification)
	}
	if own[0].ObjectID != 0 || own[1].ObjectID != 1 {
		t.Fatalf("object IDs %d, %d", own[0].ObjectID, own[1].ObjectID)
	}
}

func TestCPMKeyingSeparatesOriginsAndCAMTracks(t *testing.T) {
	m, _ := newTestMap(t)
	// Station 901's CAM track and its CPM-shared object 0 coexist, as
	// do two origins sharing the same object ID.
	m.IngestCAM(testCAM(901, geo.CISTERLab, 1.0))
	m.IngestCPMObject(901, 0, units.StationTypePedestrian, "person", geo.Point{X: 1}, 0, 0, 0)
	m.IngestCPMObject(902, 0, units.StationTypePedestrian, "person", geo.Point{X: 2}, 0, 0, 0)
	if objs, _ := m.Counts(); objs != 3 {
		t.Fatalf("objects %d, want 3 (key collision)", objs)
	}
}

func TestCPMFreshnessFollowsMeasurementTime(t *testing.T) {
	// Updated is the measurement time, not the arrival time: an object
	// whose remote measurement is already old expires sooner than one
	// measured just now.
	m, now := newTestMap(t)
	*now = time.Second
	m.IngestCPMObject(901, 1, units.StationTypePedestrian, "old", geo.Point{X: 1}, 0, 0, 100*time.Millisecond)
	m.IngestCPMObject(901, 2, units.StationTypePedestrian, "new", geo.Point{X: 2}, 0, 0, time.Second)
	*now = 1300 * time.Millisecond
	objs := m.ObjectsWithin(geo.Point{}, 100)
	if len(objs) != 1 || objs[0].Classification != "new" {
		t.Fatalf("freshness by measurement age broken: %+v", objs)
	}
}

func TestCPMFutureMeasurementClamped(t *testing.T) {
	m, now := newTestMap(t)
	*now = time.Second
	m.IngestCPMObject(901, 1, units.StationTypePedestrian, "person", geo.Point{X: 1}, 0, 0, time.Hour)
	o := m.ObjectsWithin(geo.Point{}, 100)[0]
	if o.Updated != time.Second {
		t.Fatalf("future measurement not clamped: Updated=%v", o.Updated)
	}
}

func TestClearDropsFusedState(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestSensedObject("person", units.StationTypePedestrian, geo.Point{X: 1}, 0, 0)
	m.IngestCPMObject(901, 5, units.StationTypePedestrian, "person", geo.Point{X: 2}, 0, 0, 0)
	m.Clear()
	if objs, evs := m.Counts(); objs != 0 || evs != 0 {
		t.Fatalf("Clear left %d objects, %d events", objs, evs)
	}
	if len(m.ObjectsWithin(geo.Point{}, 1000)) != 0 {
		t.Fatal("fused state survived Clear")
	}
	// Object IDs restart from zero, like a rebooted perception process.
	m.IngestSensedObject("person", units.StationTypePedestrian, geo.Point{X: 1}, 0, 0)
	if own := m.LocalPerception(); len(own) != 1 || own[0].ObjectID != 0 {
		t.Fatalf("object ID counter not reset: %+v", own)
	}
}

func TestObjectsWithinTieBreakDeterministic(t *testing.T) {
	// Two objects at the same distance must come back in a stable order
	// regardless of map-iteration order: build the map many times and
	// compare.
	var first []Object
	for trial := 0; trial < 32; trial++ {
		m, _ := newTestMap(t)
		m.IngestSensedObject("person", units.StationTypePedestrian, geo.Point{X: 3}, 0, 0)
		m.IngestCPMObject(901, 0, units.StationTypePedestrian, "person", geo.Point{X: 3}, 0, 0, 0)
		m.IngestCPMObject(902, 0, units.StationTypePedestrian, "person", geo.Point{X: -3}, 0, 0, 0)
		got := m.ObjectsWithin(geo.Point{}, 10)
		if len(got) != 3 {
			t.Fatalf("objects %d", len(got))
		}
		if trial == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: order differs at %d: %+v vs %+v", trial, i, got[i], first[i])
			}
		}
	}
}

// TestDENMRepetitionRefreshesContentWithoutExtendingExpiry pins the
// equal-referenceTime semantics precisely: a repetition (same
// referenceTime) refreshes the event's position and type but leaves
// the expiry anchored at the original detection.
func TestDENMRepetitionRefreshesContentWithoutExtendingExpiry(t *testing.T) {
	m, now := newTestMap(t)
	m.IngestDENM(testDENM(1001, 1, 60))
	orig, _ := event(m, messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 1})
	*now = 30 * time.Second
	rep := testDENM(1001, 1, 60)
	rep.Management.EventPosition.Latitude += 1000 // ~11 m north
	rep.Situation.EventType.SubCauseCode = 2
	m.IngestDENM(rep)
	ev, ok := event(m, messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 1})
	if !ok {
		t.Fatal("event lost")
	}
	if ev.Expires != orig.Expires {
		t.Fatalf("repetition moved expiry %v → %v", orig.Expires, ev.Expires)
	}
	if ev.EventType.SubCauseCode != 2 {
		t.Fatal("repetition did not refresh the event type")
	}
	if ev.Position == orig.Position {
		t.Fatal("repetition did not refresh the event position")
	}
	if ev.Detection != orig.Detection {
		t.Fatal("repetition moved the detection time")
	}
}
