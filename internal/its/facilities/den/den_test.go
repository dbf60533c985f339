package den

import (
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/geo"
	"itsbed/internal/its/messages"
	"itsbed/internal/sim"
	"itsbed/internal/units"
)

type denHarness struct {
	kernel *sim.Kernel
	sent   []struct {
		payload []byte
		area    Area
	}
	svc *Service
}

// onPayload hands r one received payload as a station does: decoded,
// then OnDecoded.
func onPayload(r *Receiver, payload []byte) {
	d, err := messages.DecodeDENM(payload)
	r.OnDecoded(d, err)
}

func newDENHarness(t *testing.T) *denHarness {
	t.Helper()
	h := &denHarness{kernel: sim.NewKernel(1)}
	clk := clock.NewNTP(clock.SourceFunc(h.kernel.Now), clock.PerfectNTP(), nil)
	svc, err := New(h.kernel, Config{
		StationID:   1001,
		StationType: units.StationTypeRoadSideUnit,
		Send: func(p []byte, a Area) error {
			h.sent = append(h.sent, struct {
				payload []byte
				area    Area
			}{p, a})
			return nil
		},
		Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.svc = svc
	return h
}

func collisionRequest() EventRequest {
	return EventRequest{
		EventType: messages.EventType{
			CauseCode:    messages.CauseCollisionRisk,
			SubCauseCode: messages.CollisionRiskCrossing,
		},
		Position: geo.CISTERLab,
		Quality:  3,
	}
}

func TestTriggerSendsImmediately(t *testing.T) {
	h := newDENHarness(t)
	id, err := h.svc.Trigger(collisionRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 {
		t.Fatalf("sent %d", len(h.sent))
	}
	d, err := messages.DecodeDENM(h.sent[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	if d.Management.ActionID != id {
		t.Fatalf("actionID %v != %v", d.Management.ActionID, id)
	}
	if d.Situation == nil || d.Situation.EventType.CauseCode != messages.CauseCollisionRisk {
		t.Fatal("situation container missing or wrong")
	}
	if d.Location == nil || len(d.Location.Traces) != 1 {
		t.Fatal("location container must carry one trace")
	}
	if h.sent[0].area.RadiusMetres != 200 {
		t.Fatalf("default relevance radius %d", h.sent[0].area.RadiusMetres)
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	h := newDENHarness(t)
	id1, err := h.svc.Trigger(collisionRequest())
	if err != nil {
		t.Fatal(err)
	}
	id2, err := h.svc.Trigger(collisionRequest())
	if err != nil {
		t.Fatal(err)
	}
	if id2.SequenceNumber != id1.SequenceNumber+1 {
		t.Fatalf("sequence numbers %d then %d", id1.SequenceNumber, id2.SequenceNumber)
	}
}

func TestRepetition(t *testing.T) {
	h := newDENHarness(t)
	req := collisionRequest()
	req.RepetitionInterval = 100 * time.Millisecond
	req.RepetitionDuration = 450 * time.Millisecond
	if _, err := h.svc.Trigger(req); err != nil {
		t.Fatal(err)
	}
	h.kernel.Run(2 * time.Second)
	// Initial + repeats at 100..400 ms = 5; the 500 ms tick is past
	// the repetition window.
	if len(h.sent) < 4 || len(h.sent) > 6 {
		t.Fatalf("transmitted %d DENMs, want ~5", len(h.sent))
	}
	// Repetitions are exact copies: reference and detection times stay
	// put, so receivers can suppress them (EN 302 637-3 §8.1.2).
	first, err := messages.DecodeDENM(h.sent[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	last, err := messages.DecodeDENM(h.sent[len(h.sent)-1].payload)
	if err != nil {
		t.Fatal(err)
	}
	if last.Management.ReferenceTime != first.Management.ReferenceTime {
		t.Fatal("reference time must not change on repetition")
	}
	if last.Management.DetectionTime != first.Management.DetectionTime {
		t.Fatal("detection time must not change on repetition")
	}
}

func TestValidityCustom(t *testing.T) {
	h := newDENHarness(t)
	req := collisionRequest()
	req.Validity = 90 * time.Second
	if _, err := h.svc.Trigger(req); err != nil {
		t.Fatal(err)
	}
	d, err := messages.DecodeDENM(h.sent[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	if d.Validity() != 90 {
		t.Fatalf("validity %d", d.Validity())
	}
}

func TestEventSpeedInLocation(t *testing.T) {
	h := newDENHarness(t)
	req := collisionRequest()
	req.EventSpeedMS = 1.5
	req.EventHeadingRad = 0
	if _, err := h.svc.Trigger(req); err != nil {
		t.Fatal(err)
	}
	d, err := messages.DecodeDENM(h.sent[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	if d.Location.EventSpeed == nil || d.Location.EventSpeed.MS() != 1.5 {
		t.Fatal("event speed missing")
	}
}

func TestOnTransmitHook(t *testing.T) {
	h := newDENHarness(t)
	var observed []*messages.DENM
	h.svc.OnTransmit = func(d *messages.DENM) { observed = append(observed, d) }
	if _, err := h.svc.Trigger(collisionRequest()); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 1 {
		t.Fatalf("hook fired %d times", len(observed))
	}
}

func TestReceiverDeduplicatesRepetitions(t *testing.T) {
	h := newDENHarness(t)
	var delivered []*messages.DENM
	r := Receiver{Sink: func(d *messages.DENM) { delivered = append(delivered, d) }}
	if _, err := h.svc.Trigger(collisionRequest()); err != nil {
		t.Fatal(err)
	}
	payload := h.sent[0].payload
	onPayload(&r, payload)
	onPayload(&r, payload) // identical repetition
	if len(delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(delivered))
	}
	if r.Repeated != 1 {
		t.Fatalf("repeated=%d", r.Repeated)
	}
}

func TestReceiverDeliversUpdates(t *testing.T) {
	h := newDENHarness(t)
	var delivered []*messages.DENM
	r := Receiver{Sink: func(d *messages.DENM) { delivered = append(delivered, d) }}
	if _, err := h.svc.Trigger(collisionRequest()); err != nil {
		t.Fatal(err)
	}
	// An update re-announces the event under its ActionID with a later
	// reference time and new content.
	d, err := messages.DecodeDENM(h.sent[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	d.Management.ReferenceTime += 10
	d.Situation.EventType = messages.EventType{CauseCode: messages.CauseDangerousSituation}
	update, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	onPayload(&r, h.sent[0].payload)
	onPayload(&r, update)
	if len(delivered) != 2 {
		t.Fatalf("delivered %d, want 2 (new + update)", len(delivered))
	}
	if r.Malformed != 0 {
		t.Fatal("unexpected malformed count")
	}
	onPayload(&r, []byte{1, 2, 3})
	if r.Malformed != 1 {
		t.Fatal("malformed payload not counted")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := New(k, Config{}); err == nil {
		t.Fatal("config without send/clock accepted")
	}
}
