package radio

import (
	"testing"
	"time"

	"itsbed/internal/geo"
	"itsbed/internal/sim"
	"itsbed/internal/world"
)

func TestObstructionBreaksLink(t *testing.T) {
	k := sim.NewKernel(5)
	// Marginal link budget so a concrete wall kills it: raise the
	// reference loss to emulate full-scale distance.
	pl := DefaultIndoorPathLoss()
	pl.ReferenceLossDB += 30
	pl.ShadowingSigmaDB = 0
	wallMap := world.NewMap([]world.Wall{{
		Segment:  geo.Segment{A: geo.Point{X: 5, Y: -5}, B: geo.Point{X: 5, Y: 5}},
		Material: world.MaterialMetal,
	}})
	m := NewMedium(k, MediumConfig{PathLoss: pl, Obstructions: wallMap})
	tx := attach(t, m, "tx", geo.Point{})
	rxBlocked := attach(t, m, "rx-blocked", geo.Point{X: 10})
	rxClear := attach(t, m, "rx-clear", geo.Point{X: -10})
	blocked, clear := 0, 0
	rxBlocked.SetReceiver(func(*Frame) { blocked++ })
	rxClear.SetReceiver(func(*Frame) { clear++ })
	for i := 0; i < 20; i++ {
		if err := tx.SendBroadcast(make([]byte, 60)); err != nil {
			t.Fatal(err)
		}
	}
	k.Run(time.Second)
	if clear < 18 {
		t.Fatalf("clear side received %d/20", clear)
	}
	if blocked > 2 {
		t.Fatalf("blocked side received %d/20 through a metal wall", blocked)
	}
}

func TestPriorityMapping(t *testing.T) {
	k := sim.NewKernel(6)
	m := NewMedium(k, MediumConfig{PathLoss: PathLossModel{Exponent: 2, ReferenceLossDB: 47.9}})
	tx := attach(t, m, "tx", geo.Point{})
	rx := attach(t, m, "rx", geo.Point{X: 3})
	var at time.Duration
	rx.SetReceiver(func(*Frame) { at = k.Now() })
	// Priority 0 → AC_VO: the idle-channel access delay is AC_VO's
	// AIFS, shorter than the AC_BE default.
	if err := tx.SendBroadcastPriority(make([]byte, 60), 0); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	wantVO := AIFS(ACVoice) + Airtime(60, MCS6Mbps)
	if at != wantVO {
		t.Fatalf("AC_VO delivery at %v, want %v", at, wantVO)
	}
	if AIFS(ACVoice) >= AIFS(ACBestEffort) {
		t.Fatal("priority mapping pointless")
	}
}
