package geonet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/units"
)

func testFrame(t *testing.T) *geo.Frame {
	t.Helper()
	f, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddressRoundTrip(t *testing.T) {
	f := func(station uint32, manual bool, st uint8) bool {
		a := Address{
			Manual:      manual,
			StationType: units.StationType(st & 0x1f),
			MAC:         [6]byte{0x02, 0x11, byte(station >> 24), byte(station >> 16), byte(station >> 8), byte(station)},
		}
		wire := a.Marshal()
		got, err := UnmarshalAddress(wire[:])
		return err == nil && got == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressDeterministic(t *testing.T) {
	a := NewAddress(units.StationTypePassengerCar, 2001)
	b := NewAddress(units.StationTypePassengerCar, 2001)
	if a != b {
		t.Fatal("NewAddress not deterministic")
	}
	c := NewAddress(units.StationTypePassengerCar, 2002)
	if a == c {
		t.Fatal("different stations share an address")
	}
}

func TestAddressTooShort(t *testing.T) {
	if _, err := UnmarshalAddress([]byte{1, 2}); err == nil {
		t.Fatal("short address parsed")
	}
}

func TestLPVRoundTrip(t *testing.T) {
	v := LongPositionVector{
		Address:          NewAddress(units.StationTypeRoadSideUnit, 1001),
		Timestamp:        0xdeadbeef,
		Latitude:         units.LatitudeFromDegrees(41.178),
		Longitude:        units.LongitudeFromDegrees(-8.608),
		PositionAccurate: true,
		Speed:            150,
		Heading:          900,
	}
	wire := v.Marshal()
	got, err := UnmarshalLPV(wire[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("round trip %+v != %+v", got, v)
	}
}

func TestLPVNegativeCoordinates(t *testing.T) {
	v := LongPositionVector{
		Address:   NewAddress(units.StationTypePassengerCar, 1),
		Latitude:  -900000000,
		Longitude: -1800000000,
	}
	wire := v.Marshal()
	got, err := UnmarshalLPV(wire[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Latitude != v.Latitude || got.Longitude != v.Longitude {
		t.Fatal("negative coordinates corrupted")
	}
}

func TestSHBPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Version:           CurrentVersion,
		Lifetime:          Lifetime{Multiplier: 1, Base: 1},
		RemainingHopLimit: 1,
		Next:              NextBTPB,
		Type:              HeaderTypeTSB,
		Subtype:           SubtypeSHB,
		TrafficClass:      2,
		MaxHopLimit:       1,
		Source: LongPositionVector{
			Address:   NewAddress(units.StationTypePassengerCar, 2001),
			Timestamp: 1234,
			Latitude:  411780000,
			Longitude: -86080000,
		},
		Payload: []byte("cam-payload"),
	}
	wire, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := Parse(wire, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, &got) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, p)
	}
}

// TestParseAliasesWireBytes pins Parse's payload contract: the payload
// is a window on the wire bytes, which every receiver of one radio
// frame shares, and it cannot grow into the bytes after it.
func TestParseAliasesWireBytes(t *testing.T) {
	p := &Packet{
		Version: CurrentVersion, Lifetime: DefaultLifetime, RemainingHopLimit: 1,
		Next: NextBTPB, Type: HeaderTypeTSB, Subtype: SubtypeSHB, MaxHopLimit: 1,
		Payload: []byte("cam-payload"),
	}
	wire, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wire = append(wire, 0xee) // a byte past the payload
	var parsed Packet
	if err := Parse(wire, &parsed); err != nil {
		t.Fatal(err)
	}
	if string(parsed.Payload) != "cam-payload" {
		t.Fatalf("payload %q, want %q", parsed.Payload, "cam-payload")
	}
	if cap(parsed.Payload) != len(parsed.Payload) {
		t.Fatal("Parse's payload can grow into the bytes after it")
	}
	wire[len(wire)-2] ^= 0xff // the payload's last byte
	if string(parsed.Payload) == "cam-payload" {
		t.Fatal("Parse copied the payload")
	}
}

func TestGBCPacketRoundTrip(t *testing.T) {
	for _, shape := range []AreaShape{ShapeCircle, ShapeRectangle, ShapeEllipse} {
		p := &Packet{
			Version:           CurrentVersion,
			Lifetime:          DefaultLifetime,
			RemainingHopLimit: 10,
			Next:              NextBTPB,
			Type:              HeaderTypeGBC,
			MaxHopLimit:       10,
			Source: LongPositionVector{
				Address: NewAddress(units.StationTypeRoadSideUnit, 1001),
			},
			SequenceNumber: 77,
			DestArea: Area{
				Shape:     shape,
				Latitude:  411780000,
				Longitude: -86080000,
				DistanceA: 200,
				DistanceB: 100,
				Angle:     45,
			},
			Payload: []byte("denm"),
		}
		wire, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var got Packet
		if err := Parse(wire, &got); err != nil {
			t.Fatal(err)
		}
		// Marshal sets the subtype from the shape.
		p.Subtype = uint8(shape)
		if !reflect.DeepEqual(p, &got) {
			t.Fatalf("shape %v round trip mismatch:\n got %+v\nwant %+v", shape, got, p)
		}
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 12), // bogus headers
	}
	for _, c := range cases {
		if err := Parse(c, new(Packet)); err == nil {
			t.Fatalf("malformed packet %v parsed", c)
		}
	}
}

func TestUnmarshalTruncatedPayload(t *testing.T) {
	p := &Packet{
		Version: CurrentVersion, Lifetime: DefaultLifetime, RemainingHopLimit: 1,
		Next: NextBTPB, Type: HeaderTypeTSB, Subtype: SubtypeSHB, MaxHopLimit: 1,
		Payload: []byte("0123456789"),
	}
	wire, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := Parse(wire[:len(wire)-4], new(Packet)); err == nil {
		t.Fatal("truncated payload parsed")
	}
}

func TestLifetimeEncoding(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want time.Duration
	}{
		{40 * time.Millisecond, 50 * time.Millisecond},
		{time.Second, time.Second},
		{90 * time.Second, 90 * time.Second},
		{45 * time.Minute, 2700 * time.Second},
		{3 * time.Hour, 6300 * time.Second}, // capped
	}
	for _, c := range cases {
		lt := LifetimeFrom(c.d)
		if lt.Duration() != c.want {
			t.Fatalf("LifetimeFrom(%v).Duration()=%v, want %v", c.d, lt.Duration(), c.want)
		}
	}
}

func TestAreaContainsCircle(t *testing.T) {
	frame := testFrame(t)
	centre := frame.ToGeodetic(geo.Point{X: 0, Y: 0})
	a := CircleAround(units.LatitudeFromDegrees(centre.Lat), units.LongitudeFromDegrees(centre.Lon), 100)
	inside := frame.ToGeodetic(geo.Point{X: 50, Y: 50})
	outside := frame.ToGeodetic(geo.Point{X: 90, Y: 90})
	if !a.Contains(frame, units.LatitudeFromDegrees(inside.Lat), units.LongitudeFromDegrees(inside.Lon)) {
		t.Fatal("point inside circle rejected")
	}
	if a.Contains(frame, units.LatitudeFromDegrees(outside.Lat), units.LongitudeFromDegrees(outside.Lon)) {
		t.Fatal("point outside circle accepted")
	}
	// Centre has F = 1.
	if f := a.CharacteristicF(frame, units.LatitudeFromDegrees(centre.Lat), units.LongitudeFromDegrees(centre.Lon)); f < 0.99 {
		t.Fatalf("centre F=%v, want ~1", f)
	}
}

func TestAreaContainsRectangleRotation(t *testing.T) {
	frame := testFrame(t)
	centre := frame.ToGeodetic(geo.Point{})
	a := Area{
		Shape:     ShapeRectangle,
		Latitude:  units.LatitudeFromDegrees(centre.Lat),
		Longitude: units.LongitudeFromDegrees(centre.Lon),
		DistanceA: 100, // along azimuth
		DistanceB: 10,
		Angle:     90, // long axis east-west
	}
	east := frame.ToGeodetic(geo.Point{X: 80, Y: 0})
	north := frame.ToGeodetic(geo.Point{X: 0, Y: 80})
	if !a.Contains(frame, units.LatitudeFromDegrees(east.Lat), units.LongitudeFromDegrees(east.Lon)) {
		t.Fatal("east point should be inside the rotated rectangle")
	}
	if a.Contains(frame, units.LatitudeFromDegrees(north.Lat), units.LongitudeFromDegrees(north.Lon)) {
		t.Fatal("north point should be outside the rotated rectangle")
	}
}

func TestAreaEllipse(t *testing.T) {
	frame := testFrame(t)
	centre := frame.ToGeodetic(geo.Point{})
	a := Area{
		Shape:     ShapeEllipse,
		Latitude:  units.LatitudeFromDegrees(centre.Lat),
		Longitude: units.LongitudeFromDegrees(centre.Lon),
		DistanceA: 100,
		DistanceB: 50,
		Angle:     0, // long axis north
	}
	farNorth := frame.ToGeodetic(geo.Point{X: 0, Y: 90})
	farEast := frame.ToGeodetic(geo.Point{X: 90, Y: 0})
	if !a.Contains(frame, units.LatitudeFromDegrees(farNorth.Lat), units.LongitudeFromDegrees(farNorth.Lon)) {
		t.Fatal("north point inside the ellipse long axis rejected")
	}
	if a.Contains(frame, units.LatitudeFromDegrees(farEast.Lat), units.LongitudeFromDegrees(farEast.Lon)) {
		t.Fatal("east point beyond the short axis accepted")
	}
}

func TestAreaZeroSize(t *testing.T) {
	frame := testFrame(t)
	a := Area{Shape: ShapeCircle}
	if a.Contains(frame, 0, 0) {
		t.Fatal("zero-radius area contains a point")
	}
}

// TestDuplicateFilterExpiry checks the duplicate filter's expiry: a
// repeat inside its lifetime is a duplicate, and once the record has
// expired GC drops it and the same key is accepted again.
func TestDuplicateFilterExpiry(t *testing.T) {
	lt := NewLocationTable()
	addr := NewAddress(units.StationTypePassengerCar, 2001)
	if lt.IsDuplicate(addr, 3, time.Second, 0) {
		t.Fatal("first packet flagged duplicate")
	}
	lt.GC(500 * time.Millisecond)
	if !lt.IsDuplicate(addr, 3, time.Second, 999*time.Millisecond) {
		t.Fatal("repeat inside the lifetime not flagged")
	}
	lt.GC(time.Second)
	if len(lt.dup) != 0 {
		t.Fatalf("GC kept %d expired records", len(lt.dup))
	}
	if lt.IsDuplicate(addr, 3, time.Second, time.Second) {
		t.Fatal("key rejected after expiry and GC")
	}
	if !lt.IsDuplicate(addr, 3, time.Second, 1500*time.Millisecond) {
		t.Fatal("the re-recorded key is not a duplicate inside its new lifetime")
	}
}

func TestDuplicateDetection(t *testing.T) {
	lt := NewLocationTable()
	addr := NewAddress(units.StationTypeRoadSideUnit, 1001)
	if lt.IsDuplicate(addr, 7, time.Minute, 0) {
		t.Fatal("first packet flagged duplicate")
	}
	if !lt.IsDuplicate(addr, 7, time.Minute, time.Second) {
		t.Fatal("repeat not flagged")
	}
	// Different sequence number is not a duplicate.
	if lt.IsDuplicate(addr, 8, time.Minute, time.Second) {
		t.Fatal("distinct sequence flagged duplicate")
	}
	// After expiry the pair can reappear.
	if lt.IsDuplicate(addr, 7, time.Millisecond, 2*time.Minute) {
		t.Fatal("expired duplicate record still active")
	}
}

// fakeLink collects sent frames.
type fakeLink struct{ frames [][]byte }

func (f *fakeLink) SendBroadcast(frame []byte) error {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	f.frames = append(f.frames, cp)
	return nil
}

func testRouter(t *testing.T, station units.StationID, pos geo.Point, handler Handler) (*Router, *fakeLink) {
	t.Helper()
	frame := testFrame(t)
	link := &fakeLink{}
	now := time.Duration(0)
	r, err := NewRouter(RouterConfig{
		Frame: frame,
		Now:   func() time.Duration { return now },
	}, link, staticEgoAt(
		NewAddress(units.StationTypeRoadSideUnit, station),
		units.LatitudeFromDegrees(frame.ToGeodetic(pos).Lat),
		units.LongitudeFromDegrees(frame.ToGeodetic(pos).Lon),
	), handler)
	if err != nil {
		t.Fatal(err)
	}
	return r, link
}

// staticEgo is the EgoPositionProvider of a station that does not
// move.
type staticEgo struct{ lpv LongPositionVector }

func (s staticEgo) EgoPosition() LongPositionVector { return s.lpv }

func staticEgoAt(addr Address, lat units.Latitude, lon units.Longitude) EgoPositionProvider {
	return staticEgo{LongPositionVector{Address: addr, Latitude: lat, Longitude: lon, PositionAccurate: true}}
}

// onFrame hands frame to r as a station's link layer does: parsed, then
// OnPacket; a malformed frame is dropped.
func onFrame(r *Router, frame []byte) {
	var p Packet
	if Parse(frame, &p) == nil {
		r.OnPacket(&p)
	}
}

func TestRouterSHBDelivery(t *testing.T) {
	var delivered []Indication
	sender, senderLink := testRouter(t, 1, geo.Point{}, nil)
	receiver, _ := testRouter(t, 2, geo.Point{X: 5}, func(ind Indication) {
		delivered = append(delivered, ind)
	})
	if err := sender.SendSHB(NextBTPB, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(senderLink.frames) != 1 {
		t.Fatalf("frames sent: %d", len(senderLink.frames))
	}
	onFrame(receiver, senderLink.frames[0])
	if len(delivered) != 1 {
		t.Fatalf("delivered %d", len(delivered))
	}
	if string(delivered[0].Payload) != "hello" {
		t.Fatalf("payload %q", delivered[0].Payload)
	}
	if delivered[0].Type != HeaderTypeTSB {
		t.Fatal("wrong type")
	}
}

func TestRouterGBCAreaFiltering(t *testing.T) {
	frame := testFrame(t)
	var inCount, outCount int
	sender, link := testRouter(t, 1, geo.Point{}, nil)
	inside, _ := testRouter(t, 2, geo.Point{X: 10}, func(Indication) { inCount++ })
	outside, _ := testRouter(t, 3, geo.Point{X: 500}, func(Indication) { outCount++ })

	centre := frame.ToGeodetic(geo.Point{})
	area := CircleAround(units.LatitudeFromDegrees(centre.Lat), units.LongitudeFromDegrees(centre.Lon), 100)
	if err := sender.SendGBC(NextBTPB, 0, area, time.Minute, []byte("warn")); err != nil {
		t.Fatal(err)
	}
	onFrame(inside, link.frames[0])
	onFrame(outside, link.frames[0])
	if inCount != 1 {
		t.Fatalf("inside received %d", inCount)
	}
	if outCount != 0 {
		t.Fatalf("outside received %d", outCount)
	}
	if outside.OutOfArea != 1 {
		t.Fatal("out-of-area counter not incremented")
	}
}

func TestRouterGBCDuplicateSuppression(t *testing.T) {
	frame := testFrame(t)
	n := 0
	sender, link := testRouter(t, 1, geo.Point{}, nil)
	receiver, _ := testRouter(t, 2, geo.Point{X: 10}, func(Indication) { n++ })
	centre := frame.ToGeodetic(geo.Point{})
	area := CircleAround(units.LatitudeFromDegrees(centre.Lat), units.LongitudeFromDegrees(centre.Lon), 100)
	if err := sender.SendGBC(NextBTPB, 0, area, time.Minute, []byte("warn")); err != nil {
		t.Fatal(err)
	}
	onFrame(receiver, link.frames[0])
	onFrame(receiver, link.frames[0]) // forwarded copy arrives again
	if n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	if receiver.Duplicates != 1 {
		t.Fatalf("duplicates=%d", receiver.Duplicates)
	}
}

func TestRouterGBCForwarding(t *testing.T) {
	frame := testFrame(t)
	sender, senderLink := testRouter(t, 1, geo.Point{}, nil)
	fwd, fwdLink := testRouter(t, 2, geo.Point{X: 10}, func(Indication) {})
	centre := frame.ToGeodetic(geo.Point{})
	area := CircleAround(units.LatitudeFromDegrees(centre.Lat), units.LongitudeFromDegrees(centre.Lon), 100)
	if err := sender.SendGBC(NextBTPB, 0, area, time.Minute, []byte("warn")); err != nil {
		t.Fatal(err)
	}
	onFrame(fwd, senderLink.frames[0])
	if fwd.Forwarded != 1 || len(fwdLink.frames) != 1 {
		t.Fatalf("forwarded=%d frames=%d", fwd.Forwarded, len(fwdLink.frames))
	}
	// The rebroadcast copy has a decremented hop limit.
	var p Packet
	if err := Parse(fwdLink.frames[0], &p); err != nil {
		t.Fatal(err)
	}
	if p.RemainingHopLimit != DefaultHopLimit-1 {
		t.Fatalf("hop limit %d", p.RemainingHopLimit)
	}
}

func TestRouterForwardingDisabled(t *testing.T) {
	frame := testFrame(t)
	link := &fakeLink{}
	now := time.Duration(0)
	centreG := frame.ToGeodetic(geo.Point{X: 10})
	r, err := NewRouter(RouterConfig{
		Frame:             frame,
		Now:               func() time.Duration { return now },
		DisableForwarding: true,
	}, link, staticEgoAt(NewAddress(units.StationTypePassengerCar, 5),
		units.LatitudeFromDegrees(centreG.Lat), units.LongitudeFromDegrees(centreG.Lon)), func(Indication) {})
	if err != nil {
		t.Fatal(err)
	}
	sender, senderLink := testRouter(t, 1, geo.Point{}, nil)
	centre := frame.ToGeodetic(geo.Point{})
	area := CircleAround(units.LatitudeFromDegrees(centre.Lat), units.LongitudeFromDegrees(centre.Lon), 100)
	if err := sender.SendGBC(NextBTPB, 0, area, time.Minute, []byte("warn")); err != nil {
		t.Fatal(err)
	}
	onFrame(r, senderLink.frames[0])
	if len(link.frames) != 0 {
		t.Fatal("forwarding-disabled router rebroadcast")
	}
}

func TestRouterConfigValidation(t *testing.T) {
	frame := testFrame(t)
	link := &fakeLink{}
	ego := staticEgoAt(NewAddress(units.StationTypePassengerCar, 1), 0, 0)
	if _, err := NewRouter(RouterConfig{Now: func() time.Duration { return 0 }}, link, ego, nil); err == nil {
		t.Fatal("router without frame accepted")
	}
	if _, err := NewRouter(RouterConfig{Frame: frame}, link, ego, nil); err == nil {
		t.Fatal("router without time source accepted")
	}
	if _, err := NewRouter(RouterConfig{Frame: frame, Now: func() time.Duration { return 0 }}, nil, ego, nil); err == nil {
		t.Fatal("router without link accepted")
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	p := &Packet{
		Version:           CurrentVersion,
		Lifetime:          Lifetime{Multiplier: 1, Base: 1},
		RemainingHopLimit: 1,
		Next:              NextAny,
		Type:              HeaderTypeBeacon,
		MaxHopLimit:       1,
		Source: LongPositionVector{
			Address:   NewAddress(units.StationTypePassengerCar, 7),
			Timestamp: 99,
			Latitude:  411780000,
			Longitude: -86080000,
			Speed:     150,
		},
	}
	wire, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := Parse(wire, &got); err != nil {
		t.Fatal(err)
	}
	// Parse materialises an empty payload slice.
	p.Payload = []byte{}
	if !reflect.DeepEqual(p, &got) {
		t.Fatalf("beacon round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestBeaconWithPayloadRejected(t *testing.T) {
	p := &Packet{
		Version: CurrentVersion, Type: HeaderTypeBeacon, Payload: []byte{1},
	}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("beacon with payload marshalled")
	}
}

// TestBeaconFeedsLocationTableOnly checks that a received beacon is
// counted and reaches no upper layer.
func TestBeaconFeedsLocationTableOnly(t *testing.T) {
	delivered := 0
	receiver, _ := testRouter(t, 2, geo.Point{X: 5}, func(Indication) { delivered++ })
	beacon := &Packet{
		Version:           CurrentVersion,
		Lifetime:          Lifetime{Multiplier: 1, Base: 1},
		RemainingHopLimit: 1,
		Next:              NextAny,
		Type:              HeaderTypeBeacon,
		MaxHopLimit:       1,
		Source:            LongPositionVector{Address: NewAddress(units.StationTypeRoadSideUnit, 1)},
	}
	wire, err := beacon.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	onFrame(receiver, wire)
	if delivered != 0 {
		t.Fatal("beacon delivered to the upper layer")
	}
	if receiver.BeaconsReceived != 1 {
		t.Fatal("beacon not counted")
	}
}
