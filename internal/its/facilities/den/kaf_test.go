package den

import (
	"testing"
	"time"

	"itsbed/internal/its/messages"
	"itsbed/internal/sim"
	"itsbed/internal/units"
)

// kafHarness builds a receiver with keep-alive forwarding into a
// capture sink.
type kafHarness struct {
	kernel    *sim.Kernel
	forwarded [][]byte
	rx        *Receiver
	kaf       *KeepAliveForwarder
}

func newKAFHarness(t *testing.T, interval time.Duration) *kafHarness {
	t.Helper()
	h := &kafHarness{kernel: sim.NewKernel(1)}
	h.kaf = NewKeepAliveForwarder(h.kernel, func(p []byte, _ Area) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		h.forwarded = append(h.forwarded, cp)
		return nil
	}, interval)
	h.rx = &Receiver{KAF: h.kaf}
	return h
}

func kafDENM(t *testing.T, seq uint16, validitySec uint32, terminated bool) []byte {
	t.Helper()
	d := messages.NewDENM(1001)
	d.Management = messages.ManagementContainer{
		ActionID:         messages.ActionID{OriginatingStationID: 1001, SequenceNumber: seq},
		DetectionTime:    1,
		ReferenceTime:    1,
		EventPosition:    messages.ReferencePosition{AltitudeValue: messages.AltitudeUnavailable},
		ValidityDuration: &validitySec,
		StationType:      units.StationTypeRoadSideUnit,
	}
	if terminated {
		term := messages.TerminationIsCancellation
		d.Management.Termination = &term
	}
	payload, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestKAFForwardsAfterSilence(t *testing.T) {
	h := newKAFHarness(t, 200*time.Millisecond)
	onPayload(h.rx, kafDENM(t, 1, 10, false))
	if len(h.kaf.entries) != 1 {
		t.Fatal("event not under management")
	}
	h.kernel.Run(time.Second)
	// One forward every 200 ms of silence: ~5 in a second.
	if len(h.forwarded) < 4 || len(h.forwarded) > 6 {
		t.Fatalf("forwarded %d times, want ~5", len(h.forwarded))
	}
	// The forwarded bytes are the original payload, bit for bit.
	got, err := messages.DecodeDENM(h.forwarded[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Management.ActionID.SequenceNumber != 1 {
		t.Fatal("forwarded payload corrupted")
	}
}

func TestKAFBacksOffWhileHearingTheEvent(t *testing.T) {
	h := newKAFHarness(t, 200*time.Millisecond)
	payload := kafDENM(t, 1, 10, false)
	onPayload(h.rx, payload)
	// Keep re-hearing the event every 100 ms: the silence timer keeps
	// re-arming and the station never forwards.
	tk := h.kernel.Every(100*time.Millisecond, 100*time.Millisecond, func() {
		onPayload(h.rx, payload)
	})
	h.kernel.Run(time.Second)
	tk.Stop()
	if len(h.forwarded) != 0 {
		t.Fatalf("forwarded %d times while the source was alive", len(h.forwarded))
	}
}

func TestKAFStopsAtValidityExpiry(t *testing.T) {
	h := newKAFHarness(t, 200*time.Millisecond)
	onPayload(h.rx, kafDENM(t, 1, 1, false)) // 1 s validity
	h.kernel.Run(5 * time.Second)
	// Forwards only during the first second (~4), then expires.
	if len(h.forwarded) > 5 {
		t.Fatalf("forwarded %d times past validity", len(h.forwarded))
	}
	if len(h.kaf.entries) != 0 {
		t.Fatal("expired event still managed")
	}
}

func TestKAFTerminationCancels(t *testing.T) {
	h := newKAFHarness(t, 200*time.Millisecond)
	onPayload(h.rx, kafDENM(t, 1, 10, false))
	h.kernel.Schedule(300*time.Millisecond, func() {
		onPayload(h.rx, kafDENM(t, 1, 10, true))
	})
	h.kernel.Run(2 * time.Second)
	// At most the one forward before the cancellation arrived.
	if len(h.forwarded) > 1 {
		t.Fatalf("forwarded %d times after termination", len(h.forwarded))
	}
	if len(h.kaf.entries) != 0 {
		t.Fatal("terminated event still managed")
	}
}

func TestKAFHonoursTransmissionInterval(t *testing.T) {
	h := newKAFHarness(t, time.Second) // default would be slow
	d := messages.NewDENM(1001)
	validity := uint32(10)
	ti := uint16(100) // the DENM asks for 100 ms
	d.Management = messages.ManagementContainer{
		ActionID:             messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 2},
		DetectionTime:        1,
		ReferenceTime:        1,
		EventPosition:        messages.ReferencePosition{AltitudeValue: messages.AltitudeUnavailable},
		ValidityDuration:     &validity,
		TransmissionInterval: &ti,
		StationType:          units.StationTypeRoadSideUnit,
	}
	payload, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	onPayload(h.rx, payload)
	h.kernel.Run(time.Second)
	if len(h.forwarded) < 8 {
		t.Fatalf("forwarded %d times; the 100 ms transmissionInterval was ignored", len(h.forwarded))
	}
}

func TestKAFStop(t *testing.T) {
	h := newKAFHarness(t, 100*time.Millisecond)
	onPayload(h.rx, kafDENM(t, 1, 10, false))
	h.kaf.Stop()
	h.kernel.Run(time.Second)
	if len(h.forwarded) != 0 {
		t.Fatal("forwarded after Stop")
	}
}

func TestKAFRepetitionDoesNotExtendValidity(t *testing.T) {
	// Repetitions of the same event version (same referenceTime) re-arm
	// the silence timer but must not push the validity expiry forward:
	// keep-alive forwarding would otherwise sustain a dead event
	// indefinitely — each forwarder's repetition refreshing the next's.
	h := newKAFHarness(t, 200*time.Millisecond)
	onPayload(h.rx, kafDENM(t, 1, 1, false)) // 1 s validity from first hear
	// Keep repeating the identical DENM well past the original expiry.
	rep := h.kernel.Every(100*time.Millisecond, 100*time.Millisecond, func() {
		if h.kernel.Now() < 3*time.Second {
			onPayload(h.rx, kafDENM(t, 1, 1, false))
		}
	})
	defer rep.Stop()
	h.kernel.Run(5 * time.Second)
	// The 100 ms repetitions keep the silence timer backed off, so no
	// forwards at all; the crucial check: the entry dies at the original
	// detection+validity instead of three seconds later.
	if len(h.kaf.entries) != 0 {
		t.Fatal("repetitions extended the event's validity; entry still managed")
	}
	if len(h.forwarded) != 0 {
		t.Fatalf("forwarded %d times while the event was continuously heard", len(h.forwarded))
	}
}

func TestKAFUpdateReanchorsValidity(t *testing.T) {
	// An update (advanced referenceTime) restarts the validity window,
	// so forwarding continues past the original expiry.
	h := newKAFHarness(t, 200*time.Millisecond)
	onPayload(h.rx, kafDENM(t, 1, 1, false))
	h.kernel.Schedule(900*time.Millisecond, func() {
		upd := messages.NewDENM(1001)
		validity := uint32(1)
		upd.Management = messages.ManagementContainer{
			ActionID:         messages.ActionID{OriginatingStationID: 1001, SequenceNumber: 1},
			DetectionTime:    2,
			ReferenceTime:    2, // advanced: a genuine update
			EventPosition:    messages.ReferencePosition{AltitudeValue: messages.AltitudeUnavailable},
			ValidityDuration: &validity,
			StationType:      units.StationTypeRoadSideUnit,
		}
		payload, err := upd.Encode()
		if err != nil {
			t.Error(err)
			return
		}
		onPayload(h.rx, payload)
	})
	h.kernel.Run(1500 * time.Millisecond)
	// At 1.5 s the original window (0..1 s) is over but the update's
	// (0.9..1.9 s) is not: the entry must still be managed.
	if len(h.kaf.entries) != 1 {
		t.Fatalf("active = %d, want 1: update did not re-anchor validity", len(h.kaf.entries))
	}
}
