package ldm

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/units"
)

// TestCAMRecordSize pins the CAM table's value: a CAM object is stored
// in 48 bytes, not as an 80-byte Object.
func TestCAMRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(camObject{}); got > 48 {
		t.Fatalf("camObject is %d bytes, want at most 48", got)
	}
}

// TestLDMReusesExpiredObjectsClean frees a sensed object and a
// CPM-fused object with GC, then fills a freed slot with a new CPM
// object, which may not carry a field of the entry it replaced; a CAM
// object stored meanwhile carries none either. Clear frees every slot
// and leaves the map usable.
func TestLDMReusesExpiredObjectsClean(t *testing.T) {
	m, now := newTestMap(t)
	m.IngestSensedObject("stop sign", units.StationTypeUnknown, geo.Point{X: 3, Y: 4}, 0, 1)
	if !m.IngestCPMObject(7, 9, units.StationTypePedestrian, "person", geo.Point{X: 1}, 1.2, 0.5, 0) {
		t.Fatal("CPM object not stored")
	}
	freed := map[*Object]bool{}
	for _, o := range m.objects {
		freed[o] = true
	}
	*now = 2 * time.Second
	m.GC()
	if objs, _ := m.Counts(); objs != 0 {
		t.Fatalf("GC kept %d objects", objs)
	}

	m.IngestCAM(testCAM(2001, geo.CISTERLab, 1.5))
	if !m.IngestCPMObject(8, 1, units.StationTypeCyclist, "", geo.Point{Y: 2}, 0, 0, *now) {
		t.Fatal("second CPM object not stored")
	}
	for k, o := range m.objects {
		if !freed[o] {
			t.Errorf("object %+v took a fresh value, not a slot GC freed", k)
		}
	}
	cam, ok := object(m, 2001)
	if !ok {
		t.Fatal("CAM object missing")
	}
	if cam.Classification != "" || cam.ObjectID != 0 || cam.Origin != 0 || cam.Source != SourceCAM {
		t.Errorf("CAM object carries an old entry's fields: %+v", cam)
	}
	near := m.ObjectsWithin(geo.Point{Y: 2}, 0.5)
	if len(near) != 1 {
		t.Fatalf("ObjectsWithin found %d objects, want the second CPM object", len(near))
	}
	if cpm := near[0]; cpm.Classification != "" || cpm.ObjectID != 1 || cpm.Origin != 8 || cpm.StationID != 0 || cpm.Source != SourceCPM {
		t.Errorf("CPM object carries an old entry's fields: %+v", cpm)
	}

	m.IngestDENM(testDENM(900, 1, 60))
	m.Clear()
	if objs, evs := m.Counts(); objs != 0 || evs != 0 {
		t.Fatalf("Clear left %d objects and %d events", objs, evs)
	}
	m.IngestSensedObject("person", units.StationTypePedestrian, geo.Point{}, 0, 0)
	m.IngestDENM(testDENM(900, 2, 60))
	if o, ok := m.SensedObject("person"); !ok || o.ObjectID != 0 || o.Origin != 0 || o.StationID != 0 {
		t.Errorf("sensed object after Clear: %+v, %v", o, ok)
	}
	if evs := activeEvents(m); len(evs) != 1 || evs[0].ActionID.SequenceNumber != 2 {
		t.Errorf("events after Clear: %+v", evs)
	}
}

// FuzzLDMMatchesReference drives Map and refMap, the LDM before its
// values moved into slabs, through the same sequence of ingests, GCs,
// Clears and clock advances, and compares every query after each step.
func FuzzLDMMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 0, 1, 2, 3, 4, 1, 1, 5, 6, 7, 8, 6, 200, 4, 1, 2, 9, 8, 7, 6, 5, 4})
	f.Add([]byte{2, 1, 1, 1, 1, 3, 3, 2, 2, 1, 1, 1, 1, 3, 3, 250, 6, 120, 4, 2, 1, 1, 1, 1, 3, 3, 2})
	f.Add([]byte{3, 1, 1, 3, 2, 0, 1, 3, 1, 1, 3, 3, 1, 7, 6, 255, 4, 3, 1, 1, 1, 0, 1, 5, 3, 2, 2, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		frame, err := geo.NewFrame(geo.CISTERLab)
		if err != nil {
			t.Fatal(err)
		}
		var now time.Duration
		cfg := Config{Frame: frame, Now: func() time.Duration { return now }}
		m, ref := New(cfg), newRefMap(cfg)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		labels := [...]string{"", "person", "stop sign", "motorbike"}
		point := func() geo.Point { return geo.Point{X: float64(int8(next())), Y: float64(int8(next()))} }
		for step := 0; len(ops) > 0 && step < 64; step++ {
			switch next() % 8 {
			case 0:
				c := testCAM(units.StationID(next()%6), geo.LatLon{
					Lat: geo.CISTERLab.Lat + float64(int8(next()))*1e-5,
					Lon: geo.CISTERLab.Lon + float64(int8(next()))*1e-5,
				}, float64(next())/10)
				c.HighFrequency.Heading = units.HeadingFromRadians(float64(next()) / 40)
				m.IngestCAM(c)
				ref.IngestCAM(c)
			case 1:
				label, st, pos := labels[next()%4], units.StationType(next()%16), point()
				speed, heading := float64(next())/10, float64(next())/40
				m.IngestSensedObject(label, st, pos, speed, heading)
				ref.IngestSensedObject(label, st, pos, speed, heading)
			case 2:
				origin, objID := units.StationID(next()%4), uint16(next()%4)
				st, class, pos := units.StationType(next()%16), labels[next()%4], point()
				speed, heading := float64(next())/10, float64(next())/40
				measured := now + time.Duration(int8(next()))*10*time.Millisecond
				got := m.IngestCPMObject(origin, objID, st, class, pos, speed, heading, measured)
				want := ref.IngestCPMObject(origin, objID, st, class, pos, speed, heading, measured)
				if got != want {
					t.Fatalf("step %d: IngestCPMObject = %v, reference %v", step, got, want)
				}
			case 3:
				d := testDENM(units.StationID(1+next()%3), uint16(next()%3), uint32(next()%4))
				d.Management.ReferenceTime = uint64(next() % 4)
				d.Management.EventPosition.Latitude = units.LatitudeFromDegrees(geo.CISTERLab.Lat + float64(int8(next()))*1e-5)
				if b := next(); b%4 == 0 {
					term := messages.TerminationIsCancellation
					d.Management.Termination = &term
				} else if b%4 == 1 {
					d.Situation = nil
				} else {
					d.Situation.EventType.CauseCode = messages.CauseCode(b)
				}
				m.IngestDENM(d)
				ref.IngestDENM(d)
			case 4:
				m.GC()
				ref.GC()
			case 5:
				m.Clear()
				ref.Clear()
			default:
				now += time.Duration(next()) * 10 * time.Millisecond
			}
			compareLDM(t, step, m, ref, labels[:])
		}
	})
}

// compareLDM fails t unless every query of m and ref agrees.
func compareLDM(t *testing.T, step int, m *Map, ref *refMap, labels []string) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("step %d: %s = %+v, reference %+v", step, what, got, want)
	}
	objs, evs := m.Counts()
	refObjs, refEvs := ref.Counts()
	if objs != refObjs || evs != refEvs {
		fail("Counts", [2]int{objs, evs}, [2]int{refObjs, refEvs})
	}
	for id := units.StationID(0); id < 6; id++ {
		o, ok := object(m, id)
		want, wantOK := ref.Object(id)
		if o != want || ok != wantOK {
			fail("Object", o, want)
		}
	}
	for _, l := range labels {
		o, ok := m.SensedObject(l)
		want, wantOK := ref.SensedObject(l)
		if o != want || ok != wantOK {
			fail("SensedObject("+l+")", o, want)
		}
	}
	if got, want := m.LocalPerception(), ref.LocalPerception(); !slices.Equal(got, want) {
		fail("LocalPerception", got, want)
	}
	for _, r := range []float64{30, 1e9} {
		if got, want := m.ObjectsWithin(geo.Point{}, r), ref.ObjectsWithin(geo.Point{}, r); !slices.Equal(got, want) {
			fail("ObjectsWithin", got, want)
		}
	}
	if got, want := activeEvents(m), ref.ActiveEvents(); !slices.Equal(got, want) {
		fail("ActiveEvents", got, want)
	}
	for st := units.StationID(1); st <= 3; st++ {
		for seq := uint16(0); seq < 3; seq++ {
			id := messages.ActionID{OriginatingStationID: st, SequenceNumber: seq}
			ev, ok := event(m, id)
			want, wantOK := ref.Event(id)
			if ev != want || ok != wantOK {
				fail("Event", ev, want)
			}
		}
	}
}
