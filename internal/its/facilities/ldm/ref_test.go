package ldm

import (
	"sort"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/units"
)

// refMap is the LDM as it stood before its values moved into slabs:
// one heap object per map value, made fresh on every insert, and fresh
// maps on Clear. FuzzLDMMatchesReference holds Map to it. Flight
// recording is left out; it observes and never decides.
type refMap struct {
	cfg       Config
	objects   map[objectKey]*Object
	events    map[messages.ActionID]*Event
	nextObjID uint16
}

func newRefMap(cfg Config) *refMap {
	if cfg.ObjectLifetime <= 0 {
		cfg.ObjectLifetime = 1100 * time.Millisecond
	}
	return &refMap{
		cfg:     cfg,
		objects: make(map[objectKey]*Object),
		events:  make(map[messages.ActionID]*Event),
	}
}

func (m *refMap) IngestCAM(c *messages.CAM) {
	pos := m.cfg.Frame.ToLocal(geo.LatLon{
		Lat: c.Basic.Position.Latitude.Degrees(),
		Lon: c.Basic.Position.Longitude.Degrees(),
	})
	k := objectKey{source: SourceCAM, station: c.Header.StationID}
	o, ok := m.objects[k]
	if !ok {
		o = &Object{}
		m.objects[k] = o
	}
	o.StationID = c.Header.StationID
	o.StationType = c.Basic.StationType
	o.Source = SourceCAM
	o.Position = pos
	o.SpeedMS = c.HighFrequency.Speed.MS()
	o.HeadingRad = c.HighFrequency.Heading.Radians()
	o.Updated = m.cfg.Now()
}

func (m *refMap) IngestSensedObject(label string, st units.StationType, pos geo.Point, speedMS, headingRad float64) {
	k := objectKey{source: SourceLocalSensor, label: label}
	o, ok := m.objects[k]
	if !ok {
		o = &Object{ObjectID: m.nextObjID}
		m.nextObjID++
		m.objects[k] = o
	}
	o.StationType = st
	o.Source = SourceLocalSensor
	o.Position = pos
	o.SpeedMS = speedMS
	o.HeadingRad = headingRad
	o.Classification = label
	o.Updated = m.cfg.Now()
}

func (m *refMap) IngestCPMObject(origin units.StationID, objectID uint16, st units.StationType, class string, pos geo.Point, speedMS, headingRad float64, measured time.Duration) bool {
	if now := m.cfg.Now(); measured > now {
		measured = now
	}
	k := objectKey{source: SourceCPM, station: origin, objID: objectID}
	o, ok := m.objects[k]
	if !ok {
		o = &Object{ObjectID: objectID, Origin: origin}
		m.objects[k] = o
	} else if measured <= o.Updated {
		return false
	}
	o.StationType = st
	o.Source = SourceCPM
	o.Position = pos
	o.SpeedMS = speedMS
	o.HeadingRad = headingRad
	o.Classification = class
	o.Updated = measured
	return true
}

func (m *refMap) IngestDENM(d *messages.DENM) {
	now := m.cfg.Now()
	pos := m.cfg.Frame.ToLocal(geo.LatLon{
		Lat: d.Management.EventPosition.Latitude.Degrees(),
		Lon: d.Management.EventPosition.Longitude.Degrees(),
	})
	ev, ok := m.events[d.Management.ActionID]
	if !ok {
		ev = &Event{ActionID: d.Management.ActionID, Detection: now}
		m.events[d.Management.ActionID] = ev
		ev.Expires = now + time.Duration(d.Validity())*time.Second
		ev.lastRef = d.Management.ReferenceTime
	} else if d.Management.ReferenceTime < ev.lastRef {
		return
	} else if d.Management.ReferenceTime > ev.lastRef {
		ev.Expires = now + time.Duration(d.Validity())*time.Second
		ev.lastRef = d.Management.ReferenceTime
		ev.Terminated = d.IsTermination()
	}
	if d.Situation != nil {
		ev.EventType = d.Situation.EventType
	}
	ev.Position = pos
	if d.IsTermination() {
		ev.Terminated = true
	}
}

func (m *refMap) Object(id units.StationID) (Object, bool) {
	o, ok := m.objects[objectKey{source: SourceCAM, station: id}]
	if !ok || m.stale(o) {
		return Object{}, false
	}
	return *o, true
}

func (m *refMap) SensedObject(label string) (Object, bool) {
	o, ok := m.objects[objectKey{source: SourceLocalSensor, label: label}]
	if !ok || m.stale(o) {
		return Object{}, false
	}
	return *o, true
}

func (m *refMap) stale(o *Object) bool {
	return m.cfg.Now()-o.Updated > m.cfg.ObjectLifetime
}

func (m *refMap) LocalPerception() []Object {
	var out []Object
	for _, o := range m.objects {
		if o.Source != SourceLocalSensor || m.stale(o) {
			continue
		}
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return perceptionLess(&out[i], &out[j]) })
	return out
}

func (m *refMap) ObjectsWithin(centre geo.Point, radius float64) []Object {
	var out []Object
	var dist []float64
	for _, o := range m.objects {
		if m.stale(o) {
			continue
		}
		if d := o.Position.DistanceTo(centre); d <= radius {
			out = append(out, *o)
			dist = append(dist, d)
		}
	}
	sort.Sort(&byCachedDistance{objs: out, dist: dist})
	return out
}

func (m *refMap) ActiveEvents() []Event {
	now := m.cfg.Now()
	var out []Event
	for _, ev := range m.events {
		if ev.Terminated || now >= ev.Expires {
			continue
		}
		out = append(out, *ev)
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

func (m *refMap) Event(id messages.ActionID) (Event, bool) {
	ev, ok := m.events[id]
	if !ok {
		return Event{}, false
	}
	return *ev, true
}

func (m *refMap) GC() {
	now := m.cfg.Now()
	for k, o := range m.objects {
		if now-o.Updated > m.cfg.ObjectLifetime {
			delete(m.objects, k)
		}
	}
	for id, ev := range m.events {
		if now >= ev.Expires {
			delete(m.events, id)
		}
	}
}

func (m *refMap) Clear() {
	m.objects = make(map[objectKey]*Object)
	m.events = make(map[messages.ActionID]*Event)
	m.nextObjID = 0
}

func (m *refMap) Counts() (objects, events int) {
	return len(m.objects), len(m.events)
}
