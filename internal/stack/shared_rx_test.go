package stack

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/messages"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/units"
)

// tapBackend wraps a backend so the test sees every frame it sends and
// every *radio.Frame it delivers.
type tapBackend struct {
	radio.Backend
	sent      [][]byte             // copies of the sent frames, taken at send
	delivered map[*radio.Frame]int // delivered frame → index into sent
	order     []*radio.Frame
	t         *testing.T
}

type tapLink struct {
	radio.Link
	b *tapBackend
}

func (b *tapBackend) AttachStation(name string, pos radio.PositionFunc) (radio.Link, error) {
	l, err := b.Backend.AttachStation(name, pos)
	if err != nil {
		return nil, err
	}
	return &tapLink{Link: l, b: b}, nil
}

func (l *tapLink) SendBroadcast(frame []byte) error {
	l.b.sent = append(l.b.sent, bytes.Clone(frame))
	return l.Link.SendBroadcast(frame)
}

func (l *tapLink) SetReceiver(fn func(*radio.Frame)) {
	l.Link.SetReceiver(func(f *radio.Frame) {
		b := l.b
		if _, ok := b.delivered[f]; !ok {
			// First receiver of this transmission: match it to the
			// copy taken when it was sent.
			i := 0
			for i < len(b.sent) && !bytes.Equal(b.sent[i], f.Bytes) {
				i++
			}
			if i == len(b.sent) {
				b.t.Fatalf("delivered frame % x was never sent", f.Bytes)
			}
			b.delivered[f] = i
			b.order = append(b.order, f)
		}
		fn(f)
	})
}

// TestSharedDecodeIsReadOnly delivers one CAM, one DENM and one CPM
// frame to three stacks on every backend. Each stack ingests into its
// LDM and retains every message from its hooks. Afterwards every
// delivered frame still holds the bytes that were sent, every stack
// retained the one decode its frame's receivers share, and that
// shared parse equals a fresh parse of the sent bytes.
func TestSharedDecodeIsReadOnly(t *testing.T) {
	backends := map[string]func(*sim.Kernel) radio.Backend{
		"its-g5":   func(k *sim.Kernel) radio.Backend { return radio.NewMedium(k, radio.MediumConfig{}) },
		"cv2x-pc5": func(k *sim.Kernel) radio.Backend { return radio.NewPC5Medium(k, radio.PC5Config{}) },
		"cv2x-uu":  func(k *sim.Kernel) radio.Backend { return radio.NewCellularLink(k, radio.Profile5GURLLC()) },
	}
	for _, name := range []string{"its-g5", "cv2x-pc5", "cv2x-uu"} {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel(5)
			tap := &tapBackend{Backend: backends[name](k), delivered: map[*radio.Frame]int{}, t: t}
			frame, err := geo.NewFrame(geo.CISTERLab)
			if err != nil {
				t.Fatal(err)
			}
			station := func(i int, role Role) *Station {
				p := geo.Point{X: float64(i) * 8, Y: 3}
				st, err := New(k, tap, Config{
					Name:        fmt.Sprintf("sta%d", i),
					Role:        role,
					StationID:   units.StationID(100 + i),
					StationType: units.StationTypePassengerCar,
					Frame:       frame,
					Mobility:    StaticMobility{Point: p, Geo: frame.ToGeodetic(p)},
					NTP:         clock.PerfectNTP(),
				})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			sender := station(0, RoleRSU)
			var cams []*messages.CAM
			var denms []*messages.DENM
			var cpms []*messages.CPM
			receivers := make([]*Station, 3)
			for i := range receivers {
				r := station(i+1, RoleOBU)
				r.OnCAM = func(c *messages.CAM) { cams = append(cams, c) }
				r.OnDENM = func(d *messages.DENM) { denms = append(denms, d) }
				r.OnCPM = func(c *messages.CPM) { cpms = append(cpms, c) }
				receivers[i] = r
			}

			k.ScheduleFn(0, func() { send(t, sharedCAM(sender), sender.sendCAM) })
			k.ScheduleFn(200*time.Millisecond, func() {
				if _, err := sender.DEN.Trigger(den.EventRequest{
					EventType: messages.EventType{CauseCode: messages.CauseCollisionRisk},
					Position:  frame.ToGeodetic(geo.Point{X: 12, Y: 3}),
				}); err != nil {
					t.Error(err)
				}
			})
			k.ScheduleFn(400*time.Millisecond, func() { send(t, sharedCPM(sender), sender.sendCPM) })
			k.Run(time.Second)

			if len(cams) != 3 || len(denms) != 3 || len(cpms) != 3 {
				t.Fatalf("hooks retained %d CAMs, %d DENMs, %d CPMs; want 3 of each", len(cams), len(denms), len(cpms))
			}
			for _, r := range receivers {
				if !hasCAMObject(r.LDM, sender.cfg.StationID) {
					t.Errorf("%s: LDM holds no object for the sender", r.Name())
				}
			}
			shared := map[any]bool{}
			for _, f := range tap.order {
				sent := tap.sent[tap.delivered[f]]
				if !bytes.Equal(f.Bytes, sent) {
					t.Errorf("frame bytes changed after delivery:\nsent % x\nnow  % x", sent, f.Bytes)
				}
				rx, ok := f.Decoded.(*RxFrame)
				if !ok {
					t.Fatalf("delivered frame carries no shared parse: %T", f.Decoded)
				}
				fresh := ParseFrame(sent)
				if rx.decoded {
					fresh.Decode()
				}
				if !reflect.DeepEqual(rx, fresh) {
					t.Errorf("shared parse differs from a fresh parse of the sent bytes:\nshared %+v\nfresh  %+v", rx, fresh)
				}
				shared[rx.CAM], shared[rx.DENM], shared[rx.CPM] = true, true, true
			}
			// Every hook retained the very value its frame's receivers
			// share: one decode per transmission.
			isShared := func(m any) {
				if !shared[m] {
					t.Errorf("a hook retained a %T that is not its frame's shared decode", m)
				}
			}
			for i := range cams {
				isShared(cams[i])
				isShared(denms[i])
				isShared(cpms[i])
			}
		})
	}
}

// send encodes m and hands it to one of the station's send paths.
func send[M interface{ Encode() ([]byte, error) }](t *testing.T, m M, sendFn func([]byte) error) {
	payload, err := m.Encode()
	if err != nil {
		t.Error(err)
		return
	}
	if err := sendFn(payload); err != nil {
		t.Error(err)
	}
}

// sharedCAM is the sender's CAM with a low-frequency container, so
// the receivers share a decoded path history too.
func sharedCAM(s *Station) *messages.CAM {
	cam := messages.NewCAM(s.cfg.StationID, 7)
	cam.Basic = messages.BasicContainer{
		StationType: units.StationTypePassengerCar,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(geo.CISTERLab.Lat),
			Longitude:     units.LongitudeFromDegrees(geo.CISTERLab.Lon),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	cam.HighFrequency = messages.BasicVehicleContainerHighFrequency{
		Heading: 900, HeadingConfidence: 10, Speed: 150, SpeedConfidence: 5,
		VehicleLength: 5, VehicleWidth: 3, Curvature: units.CurvatureUnavailable,
	}
	cam.LowFrequency = &messages.BasicVehicleContainerLowFrequency{
		ExteriorLights: 0x81,
		PathHistory:    []messages.PathPoint{{DeltaLatitude: 30, DeltaLongitude: -20, DeltaTime: 12}, {DeltaLatitude: 55, DeltaTime: 25}},
	}
	return cam
}

// sharedCPM is the sender's CPM with two perceived objects.
func sharedCPM(s *Station) *messages.CPM {
	c := messages.NewCPM(s.cfg.StationID, 9)
	c.Management = messages.CpmManagementContainer{
		StationType: units.StationTypeRoadSideUnit,
		Position: messages.ReferencePosition{
			Latitude:      units.LatitudeFromDegrees(geo.CISTERLab.Lat),
			Longitude:     units.LongitudeFromDegrees(geo.CISTERLab.Lon),
			AltitudeValue: messages.AltitudeUnavailable,
		},
	}
	for i := 0; i < 2; i++ {
		c.PerceivedObjects = append(c.PerceivedObjects, messages.PerceivedObject{
			ObjectID:  uint16(i + 1),
			XDistance: int32(200 * (i + 1)),
			YDistance: -150,
			XSpeed:    -80,
			Class:     messages.ObjectClassPerson,
		})
	}
	return c
}
