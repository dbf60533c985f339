package btp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeTypeB(t *testing.T) {
	payload := []byte("denm-bytes")
	pkt, err := Encode(Header{Type: TypeB, DestinationPort: PortDENM, DestinationPortInfo: 7}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != HeaderLen+len(payload) {
		t.Fatalf("packet length %d", len(pkt))
	}
	h, got, err := Decode(TypeB, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.DestinationPort != PortDENM || h.DestinationPortInfo != 7 {
		t.Fatalf("header %+v", h)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
}

func TestEncodeDecodeTypeA(t *testing.T) {
	pkt, err := Encode(Header{Type: TypeA, DestinationPort: PortCAM, SourcePort: 4096}, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := Decode(TypeA, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.SourcePort != 4096 || h.DestinationPort != PortCAM {
		t.Fatalf("header %+v", h)
	}
}

func TestInvalidType(t *testing.T) {
	if _, err := Encode(Header{Type: 9, DestinationPort: 1}, nil); err == nil {
		t.Fatal("invalid type encoded")
	}
	if _, _, err := Decode(Type(9), make([]byte, 8)); err == nil {
		t.Fatal("invalid type decoded")
	}
}

func TestShortPacket(t *testing.T) {
	if _, _, err := Decode(TypeB, []byte{1, 2, 3}); !errors.Is(err, ErrShort) {
		t.Fatalf("err=%v, want ErrShort", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	pkt, err := Encode(Header{Type: TypeB, DestinationPort: PortCAM}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := Decode(TypeB, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 0 {
		t.Fatalf("payload %v", payload)
	}
}

func TestWellKnownPorts(t *testing.T) {
	if PortCAM != 2001 || PortDENM != 2002 {
		t.Fatal("well-known ports wrong")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(dst, info uint16, payload []byte) bool {
		pkt, err := Encode(Header{Type: TypeB, DestinationPort: dst, DestinationPortInfo: info}, payload)
		if err != nil {
			return false
		}
		h, got, err := Decode(TypeB, pkt)
		if err != nil {
			return false
		}
		return h.DestinationPort == dst && h.DestinationPortInfo == info && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeCopiesPayload(t *testing.T) {
	payload := []byte{1, 2, 3}
	pkt, err := Encode(Header{Type: TypeB, DestinationPort: 1}, payload)
	if err != nil {
		t.Fatal(err)
	}
	payload[0] = 99
	if pkt[HeaderLen] != 1 {
		t.Fatal("Encode aliases the caller's payload")
	}
}
