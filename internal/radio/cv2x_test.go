package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"itsbed/internal/sim"
)

// quickCfg makes testing/quick deterministic: every property run draws
// from the same seeded generator.
// claim pins s's grant to an explicit resource, the deterministic
// re-grant the tests and fuzzing need. The subchannel is clamped into
// the pool and the counter to at least 1.
func claim(s *SPSScheduler, nextSlot int64, sub, counter int) {
	if nextSlot < 0 {
		nextSlot = 0
	}
	if sub < 0 || sub >= s.cfg.Subchannels {
		sub = 0
	}
	if counter < 1 {
		counter = 1
	}
	s.next, s.sub, s.counter = nextSlot, sub, counter
}

func quickCfg(seed int64, count int) *quick.Config {
	return &quick.Config{Rand: rand.New(rand.NewSource(seed)), MaxCount: count}
}

// spsFromRaw decodes a random SPSConfig from raw bytes, keeping the
// parameters inside the ranges withDefaults accepts.
func spsFromRaw(t1, span, c1, cspan, subs uint8) SPSConfig {
	return SPSConfig{
		T1:          int(t1%20) + 1,
		T2:          int(t1%20) + 1 + int(span%100),
		C1:          int(c1%10) + 1,
		C2:          int(c1%10) + 1 + int(cspan%20),
		Subchannels: int(subs%8) + 1,
	}
}

// TestSPSCounterBounds holds the scheduler to the standard's counter
// law: immediately after construction — and after every transmission —
// the reselection counter sits in [1, C2], and a fresh reselection
// always lands it in [C1, C2].
func TestSPSCounterBounds(t *testing.T) {
	prop := func(t1, span, c1, cspan, subs uint8, seed int64) bool {
		cfg := spsFromRaw(t1, span, c1, cspan, subs)
		s := NewSPSScheduler(cfg, rand.New(rand.NewSource(seed)))
		cfg = s.cfg
		if s.counter < cfg.C1 || s.counter > cfg.C2 {
			return false
		}
		for i := 0; i < 200; i++ {
			reselected := s.OnTransmit()
			if s.counter < 1 || s.counter > cfg.C2 {
				return false
			}
			if reselected && (s.counter < cfg.C1 || s.counter > cfg.C2) {
				return false
			}
		}
		s.Reselect(1000)
		return s.counter >= cfg.C1 && s.counter <= cfg.C2
	}
	if err := quick.Check(prop, quickCfg(1, 200)); err != nil {
		t.Fatal(err)
	}
}

// TestSPSSelectionWindow holds every reselection to the selection
// window: the granted slot lies in [now+T1, now+T2] and the subchannel
// inside the pool.
func TestSPSSelectionWindow(t *testing.T) {
	prop := func(t1, span, c1, cspan, subs uint8, seed, nowRaw int64) bool {
		cfg := spsFromRaw(t1, span, c1, cspan, subs)
		s := NewSPSScheduler(cfg, rand.New(rand.NewSource(seed)))
		cfg = s.cfg
		now := nowRaw % 1_000_000
		if now < 0 {
			now = -now
		}
		s.Reselect(now)
		off := s.next - now
		if off < int64(cfg.T1) || off > int64(cfg.T2) {
			return false
		}
		return s.Subchannel() >= 0 && s.Subchannel() < cfg.Subchannels
	}
	if err := quick.Check(prop, quickCfg(2, 500)); err != nil {
		t.Fatal(err)
	}
}

// TestSPSNextTxSlotPhase pins the grant fast-forward: NextTxSlot never
// returns a slot before notBefore, and advancing preserves the grant's
// phase modulo the RRI.
func TestSPSNextTxSlotPhase(t *testing.T) {
	prop := func(t1, span, c1, cspan, subs uint8, seed int64, ahead uint16) bool {
		cfg := spsFromRaw(t1, span, c1, cspan, subs)
		s := NewSPSScheduler(cfg, rand.New(rand.NewSource(seed)))
		period := s.cfg.SlotsPerRRI()
		phase := s.next % period
		got := s.NextTxSlot(int64(ahead))
		if got < int64(ahead) {
			return false
		}
		return got%period == phase
	}
	if err := quick.Check(prop, quickCfg(3, 500)); err != nil {
		t.Fatal(err)
	}
}

// pc5Pair builds a two-station sidelink for resource-level tests.
func pc5Pair(t *testing.T, cfg PC5Config, seed int64) (*sim.Kernel, *PC5Medium, *PC5Interface, *PC5Interface) {
	t.Helper()
	k := sim.NewKernel(seed)
	m := NewPC5Medium(k, cfg)
	a, err := m.Attach("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Attach("b", nil)
	if err != nil {
		t.Fatal(err)
	}
	return k, m, a, b
}

// TestSPSDisjointResourcesNeverCollide pins the collision rule: two
// stations whose grants are claimed on disjoint resources (different
// slots) always deliver, and same-slot grants on different subchannels
// never count as a collision (they lose to half-duplex instead, which
// is the physically correct outcome).
func TestSPSDisjointResourcesNeverCollide(t *testing.T) {
	k, m, a, b := pc5Pair(t, PC5Config{}, 7)
	claim(a.sps, 5, 0, 100)
	claim(b.sps, 9, 1, 100)
	var gotA, gotB int
	a.SetReceiver(func(*Frame) { gotA++ })
	b.SetReceiver(func(*Frame) { gotB++ })
	if err := a.SendBroadcast([]byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.SendBroadcast([]byte("from-b")); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if m.Collisions != 0 {
		t.Fatalf("disjoint resources collided: %d", m.Collisions)
	}
	if gotA != 1 || gotB != 1 {
		t.Fatalf("deliveries a=%d b=%d, want 1/1", gotA, gotB)
	}

	// Same slot, different subchannels: no collision, but half-duplex
	// keeps both receivers (busy transmitting) from decoding.
	k2, m2, a2, b2 := pc5Pair(t, PC5Config{}, 8)
	claim(a2.sps, 5, 0, 100)
	claim(b2.sps, 5, 1, 100)
	if err := a2.SendBroadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b2.SendBroadcast([]byte("y")); err != nil {
		t.Fatal(err)
	}
	k2.Run(time.Second)
	if m2.Collisions != 0 {
		t.Fatalf("different subchannels collided: %d", m2.Collisions)
	}
	if a2.FramesReceived != 0 || b2.FramesReceived != 0 {
		t.Fatal("half-duplex receivers decoded while transmitting")
	}

	// Same slot, same subchannel: that IS the mode-4 collision.
	k3, m3, a3, b3 := pc5Pair(t, PC5Config{}, 9)
	claim(a3.sps, 5, 2, 100)
	claim(b3.sps, 5, 2, 100)
	if err := a3.SendBroadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b3.SendBroadcast([]byte("y")); err != nil {
		t.Fatal(err)
	}
	k3.Run(time.Second)
	if m3.Collisions != 2 {
		t.Fatalf("same-resource grants: %d collisions, want 2", m3.Collisions)
	}
}

// TestPC5LossLaw holds the PR 7 loss law on the sidelink: over random
// station counts, loss probabilities and traffic, MessagesLost never
// exceeds MessagesSent, and the per-receiver frame accounting closes
// (delivered + lost = sent × receivers).
func TestPC5LossLaw(t *testing.T) {
	prop := func(nRaw, frames uint8, loss float64, seed int64) bool {
		n := int(nRaw%4) + 2
		if loss < 0 {
			loss = -loss
		}
		for loss > 1 {
			loss /= 10
		}
		k := sim.NewKernel(seed)
		m := NewPC5Medium(k, PC5Config{LossProbability: loss})
		ifaces := make([]*PC5Interface, n)
		for i := range ifaces {
			iface, err := m.Attach(fmt.Sprintf("st%02d", i), nil)
			if err != nil {
				return false
			}
			ifaces[i] = iface
		}
		sends := int(frames%32) + 1
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < sends; i++ {
			src := ifaces[rng.Intn(n)]
			if err := src.SendBroadcast([]byte{byte(i)}); err != nil {
				// Queue overflow is a legal outcome, not a law violation.
				continue
			}
		}
		k.Run(time.Minute)
		if m.MessagesLost > m.MessagesSent {
			return false
		}
		return m.FramesDelivered+m.FramesLost == m.FramesSent*uint64(n-1)
	}
	if err := quick.Check(prop, quickCfg(4, 60)); err != nil {
		t.Fatal(err)
	}
}

// TestUuLossLaw holds the same law on the Uu endpoint path and checks
// the latency plumbing: a frame sent between two endpoints arrives
// after at least BaseLatency.
func TestUuLossLaw(t *testing.T) {
	k := sim.NewKernel(11)
	l := NewCellularLink(k, Profile5GURLLC())
	a, err := l.AttachUu("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.AttachUu("b")
	if err != nil {
		t.Fatal(err)
	}
	var arrival time.Duration
	b.SetReceiver(func(*Frame) { arrival = k.Now() })
	a.SetReceiver(func(*Frame) {})
	if err := a.SendBroadcast([]byte("warn")); err != nil {
		t.Fatal(err)
	}
	k.Run(time.Second)
	if b.FramesReceived != 1 || a.FramesReceived != 0 {
		t.Fatalf("deliveries b=%d a=%d, want 1/0", b.FramesReceived, a.FramesReceived)
	}
	if arrival < Profile5GURLLC().BaseLatency {
		t.Fatalf("uu delivery at %v, before the base latency", arrival)
	}
	if l.MessagesLost > l.MessagesSent {
		t.Fatal("loss law violated")
	}
}
