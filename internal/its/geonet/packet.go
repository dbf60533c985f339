package geonet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// NextHeader values of the basic header.
const (
	basicNextCommon uint8 = 1
)

// NextHeader values of the common header (upper protocol).
type NextHeader uint8

// Upper-protocol identifiers.
const (
	NextAny  NextHeader = 0
	NextBTPA NextHeader = 1
	NextBTPB NextHeader = 2
	NextIPv6 NextHeader = 3
)

// HeaderType identifies the extended header.
type HeaderType uint8

// Extended header types used by the testbed.
const (
	HeaderTypeAny    HeaderType = 0
	HeaderTypeBeacon HeaderType = 1 // position beacon (no payload)
	HeaderTypeGBC    HeaderType = 4 // GeoBroadcast
	HeaderTypeTSB    HeaderType = 5 // Topologically-scoped broadcast; subtype 0 = SHB
)

// Header subtypes.
const (
	SubtypeSHB uint8 = 0 // single-hop broadcast (TSB with hop limit 1)
)

// Lifetime encodes the GN packet lifetime as the standard's
// multiplier×base pair.
type Lifetime struct {
	// Multiplier 0..63.
	Multiplier uint8
	// Base 0..3: 50 ms, 1 s, 10 s, 100 s.
	Base uint8
}

var lifetimeBases = [4]time.Duration{50 * time.Millisecond, time.Second, 10 * time.Second, 100 * time.Second}

// Duration converts the encoded lifetime to a time.Duration.
func (l Lifetime) Duration() time.Duration {
	return time.Duration(l.Multiplier) * lifetimeBases[l.Base&3]
}

// LifetimeFrom picks the most precise encodable lifetime not less than
// d (capped at the maximum 6300 s).
func LifetimeFrom(d time.Duration) Lifetime {
	for base, unit := range lifetimeBases {
		if d <= unit*63 {
			m := (d + unit - 1) / unit
			return Lifetime{Multiplier: uint8(m), Base: uint8(base)}
		}
	}
	return Lifetime{Multiplier: 63, Base: 3}
}

// DefaultLifetime is the GN default packet lifetime (60 s).
var DefaultLifetime = Lifetime{Multiplier: 60, Base: 1}

// TrafficClass is the GN traffic class octet (SCF, channel offload, TC ID).
type TrafficClass uint8

// DefaultHopLimit is the default maximum hop limit for GBC packets.
const DefaultHopLimit = 10

// Packet is a parsed GeoNetworking packet.
type Packet struct {
	// Basic header fields.
	Version  uint8
	Lifetime Lifetime
	// RemainingHopLimit decrements at each forwarding hop.
	RemainingHopLimit uint8
	// Common header fields.
	Next         NextHeader
	Type         HeaderType
	Subtype      uint8
	TrafficClass TrafficClass
	MaxHopLimit  uint8
	// Extended header fields.
	Source LongPositionVector
	// SequenceNumber is carried by GBC packets for duplicate detection.
	SequenceNumber uint16
	// DestArea is the GBC destination area.
	DestArea Area
	// Payload is the upper-layer packet (BTP + facilities message).
	Payload []byte
}

// CurrentVersion is the GN protocol version emitted (EN 302 636-4-1 v1.3.1 ⇒ 1).
const CurrentVersion uint8 = 1

const (
	basicHeaderLen  = 4
	commonHeaderLen = 8
	shbExtLen       = LPVLen + 4
	gbcExtLen       = 2 + 2 + LPVLen + areaWireLen + 2
	beaconExtLen    = LPVLen
)

// ErrMalformed indicates a packet that does not parse.
var ErrMalformed = errors.New("geonet: malformed packet")

// Marshal encodes the packet to wire bytes.
func (p *Packet) Marshal() ([]byte, error) {
	var extLen int
	switch p.Type {
	case HeaderTypeTSB:
		if p.Subtype != SubtypeSHB {
			return nil, fmt.Errorf("geonet: unsupported TSB subtype %d", p.Subtype)
		}
		extLen = shbExtLen
	case HeaderTypeGBC:
		// For GBC the header subtype carries the area shape.
		p.Subtype = uint8(p.DestArea.Shape)
		extLen = gbcExtLen
	case HeaderTypeBeacon:
		if len(p.Payload) != 0 {
			return nil, fmt.Errorf("geonet: beacon with payload")
		}
		extLen = beaconExtLen
	default:
		return nil, fmt.Errorf("geonet: unsupported header type %d", p.Type)
	}
	out := make([]byte, basicHeaderLen+commonHeaderLen+extLen+len(p.Payload))
	// Basic header.
	out[0] = p.Version<<4 | basicNextCommon
	out[1] = 0 // reserved
	out[2] = p.Lifetime.Multiplier<<2 | p.Lifetime.Base&3
	out[3] = p.RemainingHopLimit
	// Common header.
	ch := out[basicHeaderLen:]
	ch[0] = uint8(p.Next) << 4
	ch[1] = uint8(p.Type)<<4 | p.Subtype&0xf
	ch[2] = uint8(p.TrafficClass)
	ch[3] = 0 // flags (mobile)
	if len(p.Payload) > 0xffff {
		return nil, fmt.Errorf("geonet: payload of %d bytes exceeds 16-bit length", len(p.Payload))
	}
	binary.BigEndian.PutUint16(ch[4:6], uint16(len(p.Payload)))
	ch[6] = p.MaxHopLimit
	ch[7] = 0 // reserved
	// Extended header.
	ext := out[basicHeaderLen+commonHeaderLen:]
	lpv := p.Source.Marshal()
	switch p.Type {
	case HeaderTypeTSB, HeaderTypeBeacon:
		copy(ext[0:LPVLen], lpv[:])
		// TSB: 4 reserved bytes follow; beacon: nothing.
	case HeaderTypeGBC:
		binary.BigEndian.PutUint16(ext[0:2], p.SequenceNumber)
		// 2 reserved bytes.
		copy(ext[4:4+LPVLen], lpv[:])
		p.DestArea.marshalTo(ext[4+LPVLen : 4+LPVLen+areaWireLen])
		// 2 reserved bytes close the header.
	}
	copy(out[basicHeaderLen+commonHeaderLen+extLen:], p.Payload)
	return out, nil
}

// Parse parses wire bytes into *p without copying: p.Payload aliases
// data, so p stays valid only while data is not written. A radio frame
// is immutable once on the air, so its receivers can share one parse.
// On error *p holds no meaningful packet.
func Parse(data []byte, p *Packet) error {
	*p = Packet{}
	if len(data) < basicHeaderLen+commonHeaderLen {
		return fmt.Errorf("%w: %d bytes", ErrMalformed, len(data))
	}
	p.Version = data[0] >> 4
	if nh := data[0] & 0xf; nh != basicNextCommon {
		return fmt.Errorf("%w: basic next header %d", ErrMalformed, nh)
	}
	p.Lifetime = Lifetime{Multiplier: data[2] >> 2, Base: data[2] & 3}
	p.RemainingHopLimit = data[3]
	ch := data[basicHeaderLen:]
	p.Next = NextHeader(ch[0] >> 4)
	p.Type = HeaderType(ch[1] >> 4)
	p.Subtype = ch[1] & 0xf
	p.TrafficClass = TrafficClass(ch[2])
	payloadLen := int(binary.BigEndian.Uint16(ch[4:6]))
	p.MaxHopLimit = ch[6]
	ext := data[basicHeaderLen+commonHeaderLen:]
	var extLen int
	switch p.Type {
	case HeaderTypeBeacon:
		extLen = beaconExtLen
		if len(ext) < extLen {
			return fmt.Errorf("%w: beacon header truncated", ErrMalformed)
		}
		lpv, err := UnmarshalLPV(ext[0:LPVLen])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		p.Source = lpv
	case HeaderTypeTSB:
		if p.Subtype != SubtypeSHB {
			return fmt.Errorf("%w: TSB subtype %d", ErrMalformed, p.Subtype)
		}
		extLen = shbExtLen
		if len(ext) < extLen {
			return fmt.Errorf("%w: SHB header truncated", ErrMalformed)
		}
		lpv, err := UnmarshalLPV(ext[0:LPVLen])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		p.Source = lpv
	case HeaderTypeGBC:
		extLen = gbcExtLen
		if len(ext) < extLen {
			return fmt.Errorf("%w: GBC header truncated", ErrMalformed)
		}
		p.SequenceNumber = binary.BigEndian.Uint16(ext[0:2])
		lpv, err := UnmarshalLPV(ext[4 : 4+LPVLen])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		p.Source = lpv
		area, err := unmarshalArea(AreaShape(p.Subtype), ext[4+LPVLen:4+LPVLen+areaWireLen])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		p.DestArea = area
	default:
		return fmt.Errorf("%w: header type %d", ErrMalformed, p.Type)
	}
	body := ext[extLen:]
	if len(body) < payloadLen {
		return fmt.Errorf("%w: payload %d/%d bytes", ErrMalformed, len(body), payloadLen)
	}
	p.Payload = body[:payloadLen:payloadLen]
	return nil
}
