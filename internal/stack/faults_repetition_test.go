package stack

import (
	"testing"
	"time"

	"itsbed/internal/clock"
	"itsbed/internal/faults"
	"itsbed/internal/geo"
	"itsbed/internal/its/facilities/den"
	"itsbed/internal/its/messages"
	"itsbed/internal/radio"
	"itsbed/internal/sim"
	"itsbed/internal/trace"
	"itsbed/internal/units"
)

// TestDENMRepetitionSurvivesBurstLoss injects a deterministic rsu→obu
// burst (every frame lost until 2.3 s) under a DENM triggered at 1 s
// with 500 ms repetitions: the initial transmission and the first
// repetitions are lost, yet the warning must still arrive at the OBU
// within the repetition window once the burst clears.
func TestDENMRepetitionSurvivesBurstLoss(t *testing.T) {
	k := sim.NewKernel(3)
	frame, err := geo.NewFrame(geo.CISTERLab)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{
		Name: "test-burst",
		Links: []faults.LinkFault{{
			From: "rsu", To: "obu",
			// Degenerate Gilbert–Elliott chain: lose every frame in the
			// window regardless of state.
			LossGood: 1, LossBad: 1,
			Windows: []faults.Window{{Start: 0, End: faults.Duration(2300 * time.Millisecond)}},
		}},
	}
	inj := faults.NewInjector(k, plan, trace.Sink{})
	medium := radio.NewMedium(k, radio.MediumConfig{Faults: inj})

	rsuPos := geo.Point{X: 0, Y: 6}
	rsu, err := New(k, medium, Config{
		Name: "rsu", Role: RoleRSU, StationID: 1001,
		StationType:        units.StationTypeRoadSideUnit,
		Frame:              frame,
		Mobility:           StaticMobility{Point: rsuPos, Geo: frame.ToGeodetic(rsuPos)},
		NTP:                clock.PerfectNTP(),
		DisableCAMTriggers: true,
		DisableForwarding:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	obuPos := geo.Point{X: 0, Y: 0}
	obu, err := New(k, medium, Config{
		Name: "obu", Role: RoleOBU, StationID: 2001,
		StationType:       units.StationTypePassengerCar,
		Frame:             frame,
		Mobility:          StaticMobility{Point: obuPos, Geo: frame.ToGeodetic(obuPos)},
		NTP:               clock.PerfectNTP(),
		DisableForwarding: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rsu.Start()
	obu.Start()
	defer rsu.Stop()
	defer obu.Stop()

	var deliveredAt time.Duration
	obu.OnDENM = func(*messages.DENM) {
		if deliveredAt == 0 {
			deliveredAt = k.Now()
		}
	}

	const (
		triggerAt = time.Second
		repEvery  = 500 * time.Millisecond
		repFor    = 2500 * time.Millisecond
		validity  = 3 * time.Second
	)
	k.Schedule(triggerAt, func() {
		_, err := rsu.DEN.Trigger(den.EventRequest{
			EventType: messages.EventType{
				CauseCode:    messages.CauseCollisionRisk,
				SubCauseCode: messages.CollisionRiskCrossing,
			},
			Position:           frame.ToGeodetic(geo.Point{X: 0, Y: 3}),
			Quality:            3,
			Validity:           validity,
			RepetitionInterval: repEvery,
			RepetitionDuration: repFor,
		})
		if err != nil {
			t.Error(err)
		}
	})

	// The burst swallows the 1 s transmission and the 1.5 s and
	// 2.0 s repetitions; the 2.5 s repetition must get through.
	k.Run(4 * time.Second)
	if deliveredAt == 0 {
		t.Fatal("DENM never delivered despite repetitions outlasting the burst")
	}
	if deliveredAt < 2300*time.Millisecond {
		t.Fatalf("DENM delivered at %v, inside the loss window", deliveredAt)
	}
	if deliveredAt > triggerAt+repFor+100*time.Millisecond {
		t.Fatalf("DENM delivered at %v, outside the repetition window", deliveredAt)
	}
	if inj.LinkDrops == 0 {
		t.Fatal("injector recorded no link drops")
	}
}
