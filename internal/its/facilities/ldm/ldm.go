// Package ldm implements the Local Dynamic Map facility (ETSI EN 302
// 895): a station-local store of dynamic road objects fed by received
// CAMs, active DENM events, and locally sensed objects (the road-side
// camera). The CP service shares its station's own perception from
// it, and the CPM campaign's hazard monitor reads the objects near
// its vehicle.
package ldm

import (
	"sort"
	"time"

	"itsbed/internal/flight"
	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/units"
)

// ObjectSource says how an LDM object became known.
type ObjectSource int

// Object sources.
const (
	SourceCAM ObjectSource = iota + 1
	SourceLocalSensor
	// SourceCPM marks objects fused from another station's Collective
	// Perception Messages — second-hand knowledge this station must
	// never re-share in its own CPMs.
	SourceCPM
)

// Object is one dynamic road user tracked in the map.
type Object struct {
	StationID   units.StationID // zero for camera-only objects
	StationType units.StationType
	Source      ObjectSource
	Position    geo.Point
	SpeedMS     float64
	HeadingRad  float64
	// Classification is the sensor label for locally sensed objects
	// (e.g. "stop sign", "motorbike").
	Classification string
	// ObjectID is the sensor-assigned identifier carried on the CPM
	// wire: stable per tracked object on the originating station, and
	// part of the fusion key on receivers.
	ObjectID uint16
	// Origin is the station whose sensors perceived the object — this
	// station's own ID is never set here; only SourceCPM objects carry
	// the remote perceiver's ID.
	Origin units.StationID
	// Updated is the virtual time of the last refresh. For SourceCPM
	// objects it is the local estimate of the remote measurement time,
	// so freshness reflects the data's age, not its arrival.
	Updated time.Duration
}

// Event is one active DENM event.
type Event struct {
	ActionID  messages.ActionID
	EventType messages.EventType
	Position  geo.Point
	Detection time.Duration // local arrival/detection time
	Expires   time.Duration
	// Terminated marks cancelled events retained until expiry.
	Terminated bool
	// lastRef is the highest ReferenceTime seen for the ActionID; only
	// messages advancing it are genuine updates (EN 302 637-3).
	lastRef uint64
}

// Config parameterises the LDM.
type Config struct {
	// Frame converts message geodetic coordinates to the local plane.
	Frame *geo.Frame
	// Now yields current virtual time.
	Now func() time.Duration
	// ObjectLifetime after which unrefreshed objects vanish; zero
	// selects 1.1 s (just above the maximum CAM period).
	ObjectLifetime time.Duration
	// Flight, when enabled, records ldm.ingest/ldm.fuse events per
	// ingestion and one aggregate ldm.expire event per GC sweep that
	// removed anything.
	Flight flight.Hook
}

// Map is the local dynamic map. Not safe for concurrent use; in the
// simulation every access happens on kernel events, and the daemons
// wrap it in their own lock.
type Map struct {
	cfg Config
	// objects holds sensed and CPM-fused objects, cams CAM objects by
	// station. Each is made on its first object, so a station
	// allocates nothing for a source it never hears from.
	objects map[objectKey]*Object
	cams    map[units.StationID]*camObject
	events  map[messages.ActionID]*Event
	// objSlots, camSlots and evSlots back the maps' values: a station
	// that learns n neighbours allocates a few chunks, not n objects.
	objSlots slab[Object]
	camSlots slab[camObject]
	evSlots  slab[Event]
	// nextObjID hands out wire object IDs for locally sensed objects.
	nextObjID uint16
}

// objectKey gives each source its own key space: sensed objects are
// keyed by label, and CPM-fused objects by (originating station, wire
// object ID), so the same origin can share many objects and two origins
// can track the same road user independently. CAM objects live in
// their own table, keyed by station, so a CAM from station 0 and an
// unlabelled sensed object are two objects.
type objectKey struct {
	label   string
	station units.StationID
	objID   uint16
	source  ObjectSource
}

// camObject is the part of an Object that a CAM sets: 48 bytes, where
// an Object is 80 and its objectKey another 32. Every station of a
// city run keeps one per neighbour it hears.
type camObject struct {
	position    geo.Point
	speedMS     float64
	headingRad  float64
	updated     time.Duration
	station     units.StationID
	stationType units.StationType
}

// object returns c as a full Object.
func (c *camObject) object() Object {
	return Object{
		StationID:   c.station,
		StationType: c.stationType,
		Source:      SourceCAM,
		Position:    c.position,
		SpeedMS:     c.speedMS,
		HeadingRad:  c.headingRad,
		Updated:     c.updated,
	}
}

// New creates an empty LDM.
func New(cfg Config) *Map {
	if cfg.ObjectLifetime <= 0 {
		cfg.ObjectLifetime = 1100 * time.Millisecond
	}
	return &Map{cfg: cfg, events: make(map[messages.ActionID]*Event)}
}

// IngestCAM updates the map from a received CAM.
func (m *Map) IngestCAM(c *messages.CAM) {
	pos := m.cfg.Frame.ToLocal(geo.LatLon{
		Lat: c.Basic.Position.Latitude.Degrees(),
		Lon: c.Basic.Position.Longitude.Degrees(),
	})
	if m.cams == nil {
		m.cams = make(map[units.StationID]*camObject)
	}
	id := c.Header.StationID
	o, ok := m.cams[id]
	if !ok {
		o = m.camSlots.get()
		m.cams[id] = o
	}
	*o = camObject{
		position:    pos,
		speedMS:     c.HighFrequency.Speed.MS(),
		headingRad:  c.HighFrequency.Heading.Radians(),
		updated:     m.cfg.Now(),
		station:     id,
		stationType: c.Basic.StationType,
	}
	m.cfg.Flight.Record(o.updated, flight.LDMIngest, flight.IngestCAM, int64(id), 0)
}

// IngestSensedObject records a locally sensed object (camera
// detection). Objects are keyed by classification label, matching the
// testbed's single-region-of-interest tracking.
func (m *Map) IngestSensedObject(label string, st units.StationType, pos geo.Point, speedMS, headingRad float64) {
	if m.objects == nil {
		m.objects = make(map[objectKey]*Object)
	}
	k := objectKey{source: SourceLocalSensor, label: label}
	o, ok := m.objects[k]
	if !ok {
		o = m.objSlots.get()
		o.ObjectID = m.nextObjID
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
	m.cfg.Flight.Record(o.Updated, flight.LDMIngest, flight.IngestSensor, int64(o.ObjectID), 0)
}

// IngestCPMObject fuses one remotely perceived object from a received
// CPM, keyed by (originating station, wire object ID). measured is the
// local estimate of the remote measurement time; an update that is not
// newer than the stored state is ignored as stale. Reports whether the
// object was stored or refreshed.
func (m *Map) IngestCPMObject(origin units.StationID, objectID uint16, st units.StationType, class string, pos geo.Point, speedMS, headingRad float64, measured time.Duration) bool {
	if now := m.cfg.Now(); measured > now {
		// A remote clock ahead of ours must not make the object
		// immortal; clamp to local now.
		measured = now
	}
	if m.objects == nil {
		m.objects = make(map[objectKey]*Object)
	}
	k := objectKey{source: SourceCPM, station: origin, objID: objectID}
	o, ok := m.objects[k]
	if !ok {
		o = m.objSlots.get()
		o.ObjectID, o.Origin = objectID, origin
		m.objects[k] = o
	} else if measured <= o.Updated {
		m.cfg.Flight.Record(m.cfg.Now(), flight.LDMFuse, flight.FuseStale, int64(origin), int64(objectID))
		return false // stale or duplicate remote measurement
	}
	m.cfg.Flight.Record(m.cfg.Now(), flight.LDMFuse, flight.FuseStored, int64(origin), int64(objectID))
	o.StationType = st
	o.Source = SourceCPM
	o.Position = pos
	o.SpeedMS = speedMS
	o.HeadingRad = headingRad
	o.Classification = class
	o.Updated = measured
	return true
}

// IngestDENM records or updates an event from a received or locally
// originated DENM.
func (m *Map) IngestDENM(d *messages.DENM) {
	now := m.cfg.Now()
	pos := m.cfg.Frame.ToLocal(geo.LatLon{
		Lat: d.Management.EventPosition.Latitude.Degrees(),
		Lon: d.Management.EventPosition.Longitude.Degrees(),
	})
	ev, ok := m.events[d.Management.ActionID]
	if !ok {
		ev = m.evSlots.get()
		ev.ActionID, ev.Detection = d.Management.ActionID, now
		m.events[d.Management.ActionID] = ev
		// Anchor expiry to the event's detection: validityDuration runs
		// from detectionTime (EN 302 637-3), which the first reception
		// approximates locally. Re-anchoring on every copy would let
		// DEN repetitions extend the event's lifetime indefinitely.
		ev.Expires = now + time.Duration(d.Validity())*time.Second
		ev.lastRef = d.Management.ReferenceTime
	} else if d.Management.ReferenceTime < ev.lastRef {
		return // stale copy of an older version
	} else if d.Management.ReferenceTime > ev.lastRef {
		// A genuine update (or termination) carries a new referenceTime
		// and restarts the validity interval from its own detection.
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
	m.cfg.Flight.Record(now, flight.LDMIngest, flight.IngestDENM,
		int64(uint32(d.Management.ActionID.OriginatingStationID)), int64(d.Management.ActionID.SequenceNumber))
}

// SensedObject returns the tracked camera object with the given label.
func (m *Map) SensedObject(label string) (Object, bool) {
	o, ok := m.objects[objectKey{source: SourceLocalSensor, label: label}]
	if !ok || m.stale(o.Updated) {
		return Object{}, false
	}
	return *o, true
}

// stale reports whether an object last refreshed at updated has
// outlived the object lifetime.
func (m *Map) stale(updated time.Duration) bool {
	return m.cfg.Now()-updated > m.cfg.ObjectLifetime
}

// LocalPerception returns the station's fresh locally sensed objects,
// ordered by wire object ID, then label (IDs repeat once the counter
// wraps) — the exact set a CP service may share.
// Ownership rule: objects learned from CAMs or fused from other
// stations' CPMs are second-hand and are never returned here, so a
// station cannot re-broadcast perception it does not own.
func (m *Map) LocalPerception() []Object {
	var out []Object
	for _, o := range m.objects {
		if o.Source != SourceLocalSensor || m.stale(o.Updated) {
			continue
		}
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return perceptionLess(&out[i], &out[j]) })
	return out
}

func perceptionLess(a, b *Object) bool {
	if a.ObjectID != b.ObjectID {
		return a.ObjectID < b.ObjectID
	}
	return a.Classification < b.Classification
}

// ObjectsWithin returns fresh objects within radius of centre, nearest
// first. The slice is freshly allocated. Each distance is computed
// once and cached for the sort: this sits on the CPM hazard monitor's
// hot path, where recomputing the sqrt inside the comparator cost
// O(n log n) hypot calls per query.
func (m *Map) ObjectsWithin(centre geo.Point, radius float64) []Object {
	var out []Object
	var dist []float64
	for _, o := range m.objects {
		if m.stale(o.Updated) {
			continue
		}
		if d := o.Position.DistanceTo(centre); d <= radius {
			out = append(out, *o)
			dist = append(dist, d)
		}
	}
	for _, c := range m.cams {
		if m.stale(c.updated) {
			continue
		}
		if d := c.position.DistanceTo(centre); d <= radius {
			out = append(out, c.object())
			dist = append(dist, d)
		}
	}
	sort.Sort(&byCachedDistance{objs: out, dist: dist})
	return out
}

// byCachedDistance sorts objects by their precomputed distance, with a
// total tie-break over identity fields so map-iteration order can
// never leak into the result (two objects at the same range — e.g. a
// locally sensed road user and its CPM echo — would otherwise land in
// random order).
type byCachedDistance struct {
	objs []Object
	dist []float64
}

func (s *byCachedDistance) Len() int { return len(s.objs) }

func (s *byCachedDistance) Less(i, j int) bool {
	if s.dist[i] != s.dist[j] {
		return s.dist[i] < s.dist[j]
	}
	a, b := &s.objs[i], &s.objs[j]
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	if a.StationID != b.StationID {
		return a.StationID < b.StationID
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	if a.ObjectID != b.ObjectID {
		return a.ObjectID < b.ObjectID
	}
	return a.Classification < b.Classification
}

func (s *byCachedDistance) Swap(i, j int) {
	s.objs[i], s.objs[j] = s.objs[j], s.objs[i]
	s.dist[i], s.dist[j] = s.dist[j], s.dist[i]
}

// GC removes stale objects and expired events. Call periodically.
func (m *Map) GC() {
	now := m.cfg.Now()
	var objs, evs int64
	for k, o := range m.objects {
		if now-o.Updated > m.cfg.ObjectLifetime {
			delete(m.objects, k)
			m.objSlots.put(o)
			objs++
		}
	}
	for id, c := range m.cams {
		if now-c.updated > m.cfg.ObjectLifetime {
			delete(m.cams, id)
			m.camSlots.put(c)
			objs++
		}
	}
	for id, ev := range m.events {
		if now >= ev.Expires {
			delete(m.events, id)
			m.evSlots.put(ev)
			evs++
		}
	}
	// One aggregate event per sweep: per-deletion records would leak map
	// iteration order into the flight ring and break dump determinism.
	if objs > 0 || evs > 0 {
		m.cfg.Flight.Record(now, flight.LDMExpire, 0, objs, evs)
	}
}

// Clear drops every stored object and event — including CPM-fused
// state — modelling the state loss of a station process restart. The
// map stays usable afterwards; sensor object IDs restart from zero as
// a rebooted perception process would.
func (m *Map) Clear() {
	for k, o := range m.objects {
		delete(m.objects, k)
		m.objSlots.put(o)
	}
	for id, c := range m.cams {
		delete(m.cams, id)
		m.camSlots.put(c)
	}
	for id, ev := range m.events {
		delete(m.events, id)
		m.evSlots.put(ev)
	}
	m.nextObjID = 0
}

// Counts reports the number of stored objects and events (including
// stale entries not yet collected), for diagnostics.
func (m *Map) Counts() (objects, events int) {
	return len(m.objects) + len(m.cams), len(m.events)
}

// slab hands out zeroed *T from chunks that start at minSlabChunk
// values and double up to maxSlabChunk, and reuses the values put back
// first. No pointer it hands out may outlive its put.
type slab[T any] struct {
	chunk []T // the current chunk's values not handed out yet
	last  int // size of the last chunk made
	free  []*T
}

const (
	minSlabChunk = 4
	maxSlabChunk = 64
)

// get returns a zeroed value.
func (s *slab[T]) get() *T {
	if n := len(s.free); n > 0 {
		v := s.free[n-1]
		s.free = s.free[:n-1]
		return v
	}
	if len(s.chunk) == 0 {
		s.last = min(max(2*s.last, minSlabChunk), maxSlabChunk)
		s.chunk = make([]T, s.last)
	}
	v := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return v
}

// put zeroes v and keeps it for the next get.
func (s *slab[T]) put(v *T) {
	var zero T
	*v = zero
	s.free = append(s.free, v)
}
