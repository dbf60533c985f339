// Package btp implements the ETSI Basic Transport Protocol
// (EN 302 636-5-1). BTP is a thin multiplexing layer between the
// facilities services and GeoNetworking: a 4-byte header carrying
// destination (and, for BTP-A, source) ports. The testbed uses BTP-B
// with the well-known ports for the CA and DEN services, exactly as
// OpenC2X does.
package btp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Well-known BTP ports (ETSI TS 103 248).
const (
	PortCAM  uint16 = 2001
	PortDENM uint16 = 2002
	PortMAP  uint16 = 2003
	PortSPAT uint16 = 2004
	PortIVI  uint16 = 2006
	PortCPM  uint16 = 2009
)

// HeaderLen is the encoded size of a BTP header in bytes.
const HeaderLen = 4

// Type distinguishes the two BTP header variants.
type Type uint8

// BTP header variants.
const (
	// TypeA is the interactive variant: destination and source port.
	TypeA Type = 1
	// TypeB is the non-interactive variant used for broadcast
	// facilities messages: destination port and port info.
	TypeB Type = 2
)

// Header is a BTP-A or BTP-B header.
type Header struct {
	Type Type
	// DestinationPort identifies the facilities service.
	DestinationPort uint16
	// SourcePort is used by BTP-A only.
	SourcePort uint16
	// DestinationPortInfo is used by BTP-B only.
	DestinationPortInfo uint16
}

// ErrShort indicates a packet smaller than a BTP header.
var ErrShort = errors.New("btp: packet shorter than header")

// Encode prepends the BTP header to payload, returning a fresh slice.
func Encode(h Header, payload []byte) ([]byte, error) {
	if h.Type != TypeA && h.Type != TypeB {
		return nil, fmt.Errorf("btp: invalid header type %d", h.Type)
	}
	out := make([]byte, HeaderLen+len(payload))
	binary.BigEndian.PutUint16(out[0:2], h.DestinationPort)
	if h.Type == TypeA {
		binary.BigEndian.PutUint16(out[2:4], h.SourcePort)
	} else {
		binary.BigEndian.PutUint16(out[2:4], h.DestinationPortInfo)
	}
	copy(out[HeaderLen:], payload)
	return out, nil
}

// Decode splits a BTP packet into header and payload. The wire format
// does not self-describe the variant; the caller supplies the type the
// GeoNetworking next-header field announced. The returned payload
// aliases data.
func Decode(t Type, data []byte) (Header, []byte, error) {
	if len(data) < HeaderLen {
		return Header{}, nil, fmt.Errorf("%w: %d bytes", ErrShort, len(data))
	}
	h := Header{Type: t, DestinationPort: binary.BigEndian.Uint16(data[0:2])}
	switch t {
	case TypeA:
		h.SourcePort = binary.BigEndian.Uint16(data[2:4])
	case TypeB:
		h.DestinationPortInfo = binary.BigEndian.Uint16(data[2:4])
	default:
		return Header{}, nil, fmt.Errorf("btp: invalid header type %d", t)
	}
	return h, data[HeaderLen:], nil
}
