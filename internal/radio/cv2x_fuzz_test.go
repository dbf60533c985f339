package radio

import (
	"fmt"
	"testing"
	"time"

	"itsbed/internal/sim"
)

// FuzzSPSSchedule fuzzes the sidelink against its scheduling
// guarantees: any station count, RRI, pool size and claim pattern must
// never panic, never book a grant outside the resource pool, and never
// let two stations deterministically claimed onto distinct resources
// drift onto the same one within their counter budget.
func FuzzSPSSchedule(f *testing.F) {
	f.Add(uint8(2), uint8(100), uint8(4), uint8(8), int64(1))
	f.Add(uint8(5), uint8(20), uint8(1), uint8(3), int64(42))
	f.Add(uint8(16), uint8(0), uint8(7), uint8(200), int64(-9))
	f.Fuzz(func(t *testing.T, nRaw, rriRaw, subsRaw, sends uint8, seed int64) {
		n := int(nRaw%16) + 2
		cfg := SPSConfig{
			RRI:         time.Duration(rriRaw%120) * time.Millisecond, // 0 selects the default
			Subchannels: int(subsRaw % 9),                             // 0 selects the default
		}
		k := sim.NewKernel(seed)
		m := NewPC5Medium(k, PC5Config{SPS: cfg})
		got := m.cfg.SPS
		ifaces := make([]*PC5Interface, n)
		for i := range ifaces {
			iface, err := m.Attach(fmt.Sprintf("st%02d", i), nil)
			if err != nil {
				t.Fatal(err)
			}
			ifaces[i] = iface
		}
		// Claim the first two stations onto explicit resources with a
		// counter budget covering every send; the rest keep their random
		// grants. In degenerate pools (1-slot RRI with one subchannel)
		// the two claims may legitimately coincide, so remember whether
		// they were distinct.
		period := got.SlotsPerRRI()
		budget := int(sends) + 1
		slotA, subA := int64(4), 0
		slotB, subB := 4+period/2+1, got.Subchannels-1
		claim(ifaces[0].sps, slotA, subA, budget)
		claim(ifaces[1].sps, slotB, subB, budget)
		distinct := slotA%period != slotB%period || subA != subB
		for i := 0; i < int(sends%40); i++ {
			src := ifaces[i%n]
			_ = src.SendBroadcast([]byte{byte(i)})
		}
		k.Run(10 * time.Second)
		for i, iface := range ifaces {
			s := iface.sps
			if s.Subchannel() < 0 || s.Subchannel() >= got.Subchannels {
				t.Fatalf("%s: subchannel %d outside pool of %d", iface.name, s.Subchannel(), got.Subchannels)
			}
			// Pinned stations carry the explicit claim budget; everyone
			// else must stay inside the standard's counter range.
			limit := got.C2
			if i < 2 && budget > limit {
				limit = budget
			}
			if s.counter < 1 || s.counter > limit {
				t.Fatalf("%s: counter %d outside [1,%d]", iface.name, s.counter, limit)
			}
		}
		// Within their claimed budget neither pinned station reselected,
		// so distinctly claimed grants must still occupy distinct
		// resources (OnTransmit preserves the slot phase).
		a, b := ifaces[0].sps, ifaces[1].sps
		if distinct && a.Reselections == 0 && b.Reselections == 0 {
			if a.next%period == b.next%period && a.Subchannel() == b.Subchannel() {
				t.Fatalf("claimed-disjoint grants double-booked: slot phase %d sub %d",
					a.next%period, a.Subchannel())
			}
		}
		if m.MessagesLost > m.MessagesSent {
			t.Fatalf("loss law violated: lost %d > sent %d", m.MessagesLost, m.MessagesSent)
		}
	})
}
