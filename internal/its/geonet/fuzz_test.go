package geonet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"itsbed/internal/geo"
)

func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse panicked on %x: %v", data, r)
				ok = false
			}
		}()
		_ = Parse(data, new(Packet))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestRouterOnFrameNeverPanics(t *testing.T) {
	r, _ := testRouter(t, 9, geo.Point{}, nil)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		frame := make([]byte, rng.Intn(80))
		rng.Read(frame)
		onFrame(r, frame) // must not panic
	}
}

// FuzzUnmarshal drives the GN receive path with arbitrary frames:
// Parse must reject malformed input with an error, never panic, and
// the router must take whatever Parse accepts. Run continuously in CI
// (fuzz-smoke job) and at will with
//
//	go test -run='^$' -fuzz=FuzzUnmarshal ./internal/its/geonet
func FuzzUnmarshal(f *testing.F) {
	p := &Packet{
		Version: CurrentVersion, Lifetime: DefaultLifetime, RemainingHopLimit: 5,
		Next: NextBTPB, Type: HeaderTypeGBC, MaxHopLimit: 5,
		Source:         LongPositionVector{Address: NewAddress(1, 1)},
		SequenceNumber: 3,
		DestArea:       Area{Shape: ShapeCircle, DistanceA: 100},
		Payload:        []byte("denm-bytes"),
	}
	if seed, err := p.Marshal(); err == nil {
		f.Add(seed)
	}
	shb := &Packet{
		Version: CurrentVersion, Lifetime: Lifetime{Multiplier: 1, Base: 1},
		RemainingHopLimit: 1, Next: NextBTPB, Type: HeaderTypeTSB, Subtype: SubtypeSHB,
		MaxHopLimit: 1, Source: LongPositionVector{Address: NewAddress(5, 2001)},
		Payload: []byte("cam-bytes"),
	}
	if seed, err := shb.Marshal(); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Errors are the expected outcome for arbitrary bytes (these
		// frames arrive from the air); a panic is a failure.
		r, _ := testRouter(t, 9, geo.Point{}, nil)
		onFrame(r, data)
	})
}

func TestUnmarshalMutatedPacket(t *testing.T) {
	p := &Packet{
		Version: CurrentVersion, Lifetime: DefaultLifetime, RemainingHopLimit: 5,
		Next: NextBTPB, Type: HeaderTypeGBC, MaxHopLimit: 5,
		Source:         LongPositionVector{Address: NewAddress(1, 1)},
		SequenceNumber: 3,
		DestArea:       Area{Shape: ShapeCircle, DistanceA: 100},
		Payload:        []byte("denm-bytes"),
	}
	base, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		mutated := make([]byte, len(base))
		copy(mutated, base)
		pos := rng.Intn(len(mutated) * 8)
		mutated[pos/8] ^= 1 << (7 - uint(pos%8))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %x: %v", mutated, r)
				}
			}()
			_ = Parse(mutated, new(Packet))
		}()
	}
}
