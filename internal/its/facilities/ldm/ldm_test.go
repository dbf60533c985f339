package ldm

import (
	"sort"
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/units"
)

// object returns m's fresh CAM object of station id.
func object(m *Map, id units.StationID) (Object, bool) {
	c, ok := m.cams[id]
	if !ok || m.stale(c.updated) {
		return Object{}, false
	}
	return c.object(), true
}

// event returns m's stored event id.
func event(m *Map, id messages.ActionID) (Event, bool) {
	ev, ok := m.events[id]
	if !ok {
		return Event{}, false
	}
	return *ev, true
}

// activeEvents returns m's non-terminated, unexpired events ordered by
// action ID.
func activeEvents(m *Map) []Event {
	now := m.cfg.Now()
	var out []Event
	for _, ev := range m.events {
		if !ev.Terminated && now < ev.Expires {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ActionID, out[j].ActionID
		if a.OriginatingStationID != b.OriginatingStationID {
			return a.OriginatingStationID < b.OriginatingStationID
		}
		return a.SequenceNumber < b.SequenceNumber
	})
	return out
}

func newTestMap(t *testing.T) (*Map, *time.Duration) {
	t.Helper()
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	now := new(time.Duration)
	m := New(Config{
		Frame: frame,
		Now:   func() time.Duration { return *now },
	})
	return m, now
}

func testCAM(station units.StationID, pos geo.LatLon, speed float64) *messages.CAM {
	cam := messages.NewCAM(station, 0)
	cam.Basic = messages.BasicContainer{
		StationType: units.StationTypePassengerCar,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(pos.Lat),
			Longitude:     units.LongitudeFromDegrees(pos.Lon),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	cam.HighFrequency.Speed = units.SpeedFromMS(speed)
	return cam
}

func testDENM(station units.StationID, seq uint16, validity uint32) *messages.DENM {
	d := messages.NewDENM(station)
	d.Management = messages.ManagementContainer{
		ActionID:         messages.ActionID{OriginatingStationID: station, SequenceNumber: seq},
		DetectionTime:    1,
		ReferenceTime:    1,
		EventPosition:    messages.ReferencePosition{AltitudeValue: messages.AltitudeUnavailable},
		ValidityDuration: &validity,
		StationType:      units.StationTypeRoadSideUnit,
	}
	d.Situation = &messages.SituationContainer{
		EventType: messages.EventType{CauseCode: messages.CauseCollisionRisk},
	}
	return d
}

// TestCAMAndSensedObjectsDoNotCollide: a CAM from station 0 and an
// unlabelled camera object are two objects, each keeping its source.
func TestCAMAndSensedObjectsDoNotCollide(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestSensedObject("", units.StationTypeUnknown, geo.Point{X: 1}, 0, 0)
	m.IngestCAM(testCAM(0, geo.CISTERLab, 1.5))
	if objects, _ := m.Counts(); objects != 2 {
		t.Fatalf("LDM holds %d objects, want 2", objects)
	}
	if o, ok := m.SensedObject(""); !ok || o.Source != SourceLocalSensor || o.Position != (geo.Point{X: 1}) {
		t.Fatalf("sensed object %+v (%v) overwritten by the CAM", o, ok)
	}
	if o, ok := object(m, 0); !ok || o.Source != SourceCAM || o.SpeedMS != 1.5 {
		t.Fatalf("CAM object %+v (%v)", o, ok)
	}
}

func TestIngestCAMCreatesObject(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestCAM(testCAM(2001, geo.CISTERLab, 1.5))
	o, ok := object(m, 2001)
	if !ok {
		t.Fatal("object missing")
	}
	if o.Source != SourceCAM || o.SpeedMS != 1.5 {
		t.Fatalf("object %+v", o)
	}
	if o.Position.DistanceTo(geo.Point{}) > 0.01 {
		t.Fatalf("position %v, want near frame origin", o.Position)
	}
}

func TestCAMUpdatesExistingObject(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestCAM(testCAM(2001, geo.CISTERLab, 1.0))
	m.IngestCAM(testCAM(2001, geo.CISTERLab, 2.0))
	o, _ := object(m, 2001)
	if o.SpeedMS != 2.0 {
		t.Fatal("object not updated")
	}
	if objs, _ := m.Counts(); objs != 1 {
		t.Fatalf("duplicate objects: %d", objs)
	}
}

func TestObjectExpiry(t *testing.T) {
	m, now := newTestMap(t)
	m.IngestCAM(testCAM(2001, geo.CISTERLab, 1.0))
	*now = 2 * time.Second
	if _, ok := object(m, 2001); ok {
		t.Fatal("stale object returned")
	}
	m.GC()
	if objs, _ := m.Counts(); objs != 0 {
		t.Fatal("GC left stale object")
	}
}

func TestSensedObjects(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestSensedObject("stop sign", units.StationTypeUnknown, geo.Point{X: 1, Y: 2}, 1.4, 0)
	o, ok := m.SensedObject("stop sign")
	if !ok {
		t.Fatal("sensed object missing")
	}
	if o.Source != SourceLocalSensor || o.Classification != "stop sign" {
		t.Fatalf("object %+v", o)
	}
	// Sensor objects and CAM objects coexist under different keys.
	m.IngestCAM(testCAM(2001, geo.CISTERLab, 1.0))
	if objs, _ := m.Counts(); objs != 2 {
		t.Fatalf("objects=%d", objs)
	}
}

func TestObjectsWithinSortsByDistance(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestSensedObject("far", units.StationTypeUnknown, geo.Point{X: 50}, 0, 0)
	m.IngestSensedObject("near", units.StationTypeUnknown, geo.Point{X: 5}, 0, 0)
	m.IngestSensedObject("out", units.StationTypeUnknown, geo.Point{X: 500}, 0, 0)
	got := m.ObjectsWithin(geo.Point{}, 100)
	if len(got) != 2 {
		t.Fatalf("got %d objects", len(got))
	}
	if got[0].Classification != "near" || got[1].Classification != "far" {
		t.Fatalf("order: %s then %s", got[0].Classification, got[1].Classification)
	}
}

func TestIngestDENMEventLifecycle(t *testing.T) {
	m, now := newTestMap(t)
	m.IngestDENM(testDENM(1001, 1, 60))
	evs := activeEvents(m)
	if len(evs) != 1 {
		t.Fatalf("active events %d", len(evs))
	}
	if evs[0].EventType.CauseCode != messages.CauseCollisionRisk {
		t.Fatal("event type")
	}
	// Expiry.
	*now = 61 * time.Second
	if len(activeEvents(m)) != 0 {
		t.Fatal("expired event still active")
	}
	m.GC()
	if _, evCount := m.Counts(); evCount != 0 {
		t.Fatal("GC left expired events")
	}
}

func TestDENMTerminationDeactivates(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestDENM(testDENM(1001, 1, 600))
	cancel := testDENM(1001, 1, 600)
	term := messages.TerminationIsCancellation
	cancel.Management.Termination = &term
	m.IngestDENM(cancel)
	if len(activeEvents(m)) != 0 {
		t.Fatal("terminated event still active")
	}
	ev, ok := event(m, messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 1})
	if !ok || !ev.Terminated {
		t.Fatal("termination not recorded")
	}
}

// TestActiveEventsDeterministicOrder pins activeEvents' order, which
// the comparisons against the reference map rely on.
func TestActiveEventsDeterministicOrder(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestDENM(testDENM(1002, 5, 600))
	m.IngestDENM(testDENM(1001, 9, 600))
	m.IngestDENM(testDENM(1001, 2, 600))
	evs := activeEvents(m)
	if len(evs) != 3 {
		t.Fatalf("events %d", len(evs))
	}
	if evs[0].ActionID.OriginatingStationID != 1001 || evs[0].ActionID.SequenceNumber != 2 {
		t.Fatalf("order wrong: %v first", evs[0].ActionID)
	}
	if evs[2].ActionID.OriginatingStationID != 1002 {
		t.Fatalf("order wrong: %v last", evs[2].ActionID)
	}
}

func TestDENMWithoutSituationKeepsPreviousType(t *testing.T) {
	m, _ := newTestMap(t)
	m.IngestDENM(testDENM(1001, 1, 600))
	bare := testDENM(1001, 1, 600)
	bare.Situation = nil
	m.IngestDENM(bare)
	ev, _ := event(m, messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 1})
	if ev.EventType.CauseCode != messages.CauseCollisionRisk {
		t.Fatal("event type lost on situationless update")
	}
}

func TestDENMRepetitionDoesNotExtendExpiry(t *testing.T) {
	// EN 302 637-3: validityDuration runs from the event's detection.
	// Repetitions (same referenceTime) refresh content but must not
	// push the expiry forward — that would keep a 60 s event alive
	// forever under 1 Hz repetition.
	m, now := newTestMap(t)
	m.IngestDENM(testDENM(1001, 1, 60))
	for s := time.Duration(10); s <= 50; s += 10 {
		*now = s * time.Second
		m.IngestDENM(testDENM(1001, 1, 60)) // identical repetition
	}
	*now = 59 * time.Second
	if len(activeEvents(m)) != 1 {
		t.Fatal("event should still be active just before the original expiry")
	}
	*now = 61 * time.Second
	if len(activeEvents(m)) != 0 {
		t.Fatal("repetitions extended the event's lifetime past detection+validity")
	}
}

func TestDENMUpdateReanchorsExpiry(t *testing.T) {
	// An update DENM (advanced referenceTime) restarts the validity
	// interval: the originator re-assessed the event.
	m, now := newTestMap(t)
	m.IngestDENM(testDENM(1001, 1, 60))
	*now = 50 * time.Second
	upd := testDENM(1001, 1, 60)
	upd.Management.ReferenceTime = 2
	m.IngestDENM(upd)
	*now = 100 * time.Second // < 50 + 60
	if len(activeEvents(m)) != 1 {
		t.Fatal("updated event expired too early")
	}
	*now = 111 * time.Second
	if len(activeEvents(m)) != 0 {
		t.Fatal("updated event outlived its re-anchored validity")
	}
}

func TestDENMStaleReferenceTimeIgnored(t *testing.T) {
	m, now := newTestMap(t)
	first := testDENM(1001, 1, 60)
	first.Management.ReferenceTime = 5
	m.IngestDENM(first)
	// A late copy of an older version must not roll the event back.
	*now = 10 * time.Second
	stale := testDENM(1001, 1, 600)
	stale.Management.ReferenceTime = 2
	stale.Situation.EventType.CauseCode = messages.CauseDangerousSituation
	m.IngestDENM(stale)
	ev, ok := event(m, messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 1})
	if !ok {
		t.Fatal("event lost")
	}
	if ev.EventType.CauseCode != messages.CauseCollisionRisk {
		t.Fatal("stale copy overwrote the event type")
	}
	*now = 61 * time.Second
	if len(activeEvents(m)) != 0 {
		t.Fatal("stale copy's longer validity extended the event")
	}
}
