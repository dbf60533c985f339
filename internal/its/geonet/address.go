// Package geonet implements the subset of ETSI GeoNetworking
// (EN 302 636-4-1) that the ITS-G5 testbed exercises: GN addresses,
// long position vectors, basic and common headers, the Single-Hop
// Broadcast (SHB) and GeoBroadcast (GBC) packet types, geographical
// target areas (EN 302 931), duplicate-packet detection, and a router that performs delivery and constrained
// rebroadcast forwarding over an abstract link layer.
package geonet

import (
	"encoding/binary"
	"fmt"

	"itsbed/internal/units"
)

// AddrLen is the size of a GN_ADDR in bytes.
const AddrLen = 8

// Address is a GeoNetworking address: configuration flag, station
// type, and a 48-bit link-layer address.
type Address struct {
	// Manual reports manually-configured (true) vs auto-configured.
	Manual bool
	// StationType mirrors the ITS station type.
	StationType units.StationType
	// MAC is the 48-bit link layer address.
	MAC [6]byte
}

// NewAddress derives a deterministic GN address from a station ID.
func NewAddress(st units.StationType, station units.StationID) Address {
	var mac [6]byte
	mac[0] = 0x02 // locally administered
	mac[1] = 0x11
	binary.BigEndian.PutUint32(mac[2:], uint32(station))
	return Address{Manual: true, StationType: st, MAC: mac}
}

// Marshal encodes the address to its 8-byte wire form.
func (a Address) Marshal() [AddrLen]byte {
	var out [AddrLen]byte
	var head uint16
	if a.Manual {
		head |= 1 << 15
	}
	head |= uint16(a.StationType&0x1f) << 10
	binary.BigEndian.PutUint16(out[0:2], head)
	copy(out[2:], a.MAC[:])
	return out
}

// UnmarshalAddress decodes an 8-byte GN address.
func UnmarshalAddress(b []byte) (Address, error) {
	if len(b) < AddrLen {
		return Address{}, fmt.Errorf("geonet: address needs %d bytes, have %d", AddrLen, len(b))
	}
	head := binary.BigEndian.Uint16(b[0:2])
	var a Address
	a.Manual = head&(1<<15) != 0
	a.StationType = units.StationType((head >> 10) & 0x1f)
	copy(a.MAC[:], b[2:8])
	return a, nil
}

// String implements fmt.Stringer.
func (a Address) String() string {
	return fmt.Sprintf("%s/%02x:%02x:%02x:%02x:%02x:%02x",
		a.StationType, a.MAC[0], a.MAC[1], a.MAC[2], a.MAC[3], a.MAC[4], a.MAC[5])
}

// LongPositionVector carries a station's address and geo-referenced
// kinematic state (EN 302 636-4-1 §8.5).
type LongPositionVector struct {
	Address Address
	// Timestamp of the position, ms since ITS epoch modulo 2^32.
	Timestamp uint32
	Latitude  units.Latitude
	Longitude units.Longitude
	// PositionAccurate is the PAI bit.
	PositionAccurate bool
	// Speed in 0.01 m/s (15-bit field).
	Speed uint16
	// Heading in 0.1 degree.
	Heading units.Heading
}

// LPVLen is the wire size of a long position vector.
const LPVLen = 24

// Marshal encodes the LPV to its 24-byte wire form.
func (v LongPositionVector) Marshal() [LPVLen]byte {
	var out [LPVLen]byte
	addr := v.Address.Marshal()
	copy(out[0:8], addr[:])
	binary.BigEndian.PutUint32(out[8:12], v.Timestamp)
	binary.BigEndian.PutUint32(out[12:16], uint32(int32(v.Latitude)))
	binary.BigEndian.PutUint32(out[16:20], uint32(int32(v.Longitude)))
	sp := v.Speed & 0x7fff
	if v.PositionAccurate {
		sp |= 1 << 15
	}
	binary.BigEndian.PutUint16(out[20:22], sp)
	binary.BigEndian.PutUint16(out[22:24], uint16(v.Heading))
	return out
}

// UnmarshalLPV decodes a 24-byte long position vector.
func UnmarshalLPV(b []byte) (LongPositionVector, error) {
	if len(b) < LPVLen {
		return LongPositionVector{}, fmt.Errorf("geonet: LPV needs %d bytes, have %d", LPVLen, len(b))
	}
	addr, err := UnmarshalAddress(b[0:8])
	if err != nil {
		return LongPositionVector{}, err
	}
	var v LongPositionVector
	v.Address = addr
	v.Timestamp = binary.BigEndian.Uint32(b[8:12])
	v.Latitude = units.Latitude(int32(binary.BigEndian.Uint32(b[12:16])))
	v.Longitude = units.Longitude(int32(binary.BigEndian.Uint32(b[16:20])))
	sp := binary.BigEndian.Uint16(b[20:22])
	v.PositionAccurate = sp&(1<<15) != 0
	v.Speed = sp & 0x7fff
	v.Heading = units.Heading(binary.BigEndian.Uint16(b[22:24]))
	return v, nil
}
